package client

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// A write that gives up before a verdict leaves its version to the chunk's
// next writer as an orphan, which that writer drives to a verdict before it
// takes a version of its own: the version is handed out once.

// seeded returns 4 KiB of bytes drawn from seed.
func seeded(seed uint64) []byte {
	data := make([]byte, 4*util.KiB)
	util.NewRand(seed).Fill(data)
	return data
}

func mustRoundTrip(t *testing.T, vd *VDisk, seed uint64, off int64) {
	t.Helper()
	data := seeded(seed)
	if err := vd.WriteAt(data, off); err != nil {
		t.Fatalf("write at %d: %v", off, err)
	}
	mustRead(t, vd, data, off)
}

// mustRead fails the test unless vd reads want at off.
func mustRead(t *testing.T, vd *VDisk, want []byte, off int64) {
	t.Helper()
	got := make([]byte, len(want))
	if err := vd.ReadAt(got, off); err != nil {
		t.Fatalf("read at %d: %v", off, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read at %d returned other bytes than written", off)
	}
}

// chunkState returns chunk idx's next version, committed version and orphan
// count.
func chunkState(vd *VDisk, idx int) (next, committed uint64, orphans int) {
	ch := vd.chunks[idx]
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.next, ch.committed, len(ch.orphans)
}

// auditReplicas fails the test unless every replica of every chunk of vd
// answers one version in the chunk's view, and the same bytes over the
// chunk's first span bytes.
func (e *env) auditReplicas(t *testing.T, vd *VDisk, span int64) {
	t.Helper()
	for idx, ch := range vd.chunks {
		ch.mu.Lock()
		cm := ch.meta
		ch.mu.Unlock()
		var version uint64
		var sum uint32
		for i, r := range cm.Replicas {
			srv := e.servers[r.Addr]
			got, err := proto.DecodeResults(srv.Handle(&proto.Message{Op: proto.OpGetVersion, Payload: proto.EncodeChunkIDs(vd.chunkID(idx))}).Payload)
			if err != nil || len(got) != 1 || got[0].Status != proto.StatusOK || got[0].View != cm.View {
				t.Fatalf("chunk %d replica %s: %+v, %v; want OK in view %d", idx, r.Addr, got, err, cm.View)
			}
			resp := srv.Handle(&proto.Message{Op: proto.OpRead, Chunk: vd.chunkID(idx), Length: uint32(span), View: cm.View, Version: got[0].Version})
			if resp.Status != proto.StatusOK {
				t.Fatalf("chunk %d replica %s: read %s", idx, r.Addr, resp.Status)
			}
			s := util.Checksum(resp.Payload)
			bufpool.Put(resp.Payload)
			if i == 0 {
				version, sum = got[0].Version, s
			} else if got[0].Version != version || s != sum {
				t.Errorf("chunk %d replica %s at version %d, checksum %x; %s at %d, %x",
					idx, r.Addr, got[0].Version, s, cm.Replicas[0].Addr, version, sum)
			}
		}
	}
}

// TestSpentBudgetWriteTakesNoVersion: a write whose budget is gone before it
// can commit (a throttled write, or a budget too short to commit anything at
// all) fails, and the writes after it go through at once. On the real clock
// 1 ns has passed by the time the write would take a version, so it takes
// none; in a bubble no time has, so the write goes out with 1 ns left and
// gives up while the replicas still apply it, and the next write drives it
// to its verdict before taking a version of its own.
func TestSpentBudgetWriteTakesNoVersion(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		cl := e.client(t, "a")
		vd := e.vdisk(t, cl, "d", 128*util.MiB)
		mustRoundTrip(t, vd, 1, 0)

		budget := cl.cfg.IOTimeout
		cl.cfg.IOTimeout = time.Nanosecond
		if err := vd.WriteAt(make([]byte, 4*util.KiB), 4*util.KiB); err == nil {
			t.Fatal("a write with a 1 ns budget succeeded")
		}
		cl.cfg.IOTimeout = budget

		retries := vd.Stats().Retries
		mustRoundTrip(t, vd, 2, 8*util.KiB)
		if n := vd.Stats().Retries - retries; n != 0 {
			t.Errorf("the write after the failed one needed %d retries", n)
		}
	})
}

// Which of a client-directed write's requests a lossyDialer's connections
// silently lose.
const (
	loseNothing int32 = iota
	loseBackups       // the primary applies the write, the backups never hear of it
	loseAll           // no replica hears of it
)

type lossyDialer struct {
	transport.Dialer
	lose *atomic.Int32
}

func (d lossyDialer) Dial(addr string) (transport.MsgConn, error) {
	c, err := d.Dialer.Dial(addr)
	if err != nil {
		return nil, err
	}
	// A client-directed write sends every replica the same OpReplicate; the
	// env places every primary on an SSD server and every backup on an HDD
	// one, so the address tells them apart.
	return lossyConn{c, d.lose, strings.HasSuffix(addr, "/ssd")}, nil
}

type lossyConn struct {
	transport.MsgConn
	lose    *atomic.Int32
	primary bool
}

func (c lossyConn) Send(m *proto.Message) error {
	lose := c.lose.Load()
	if m.Op == proto.OpReplicate && (lose == loseAll || lose == loseBackups && !c.primary) {
		bufpool.Put(m.Payload)
		return nil
	}
	return c.MsgConn.Send(m)
}

// lossyClient returns a client whose client-directed writes lose what lose
// says, and its close.
func lossyClient(e *env, lose *atomic.Int32) (*Client, func()) {
	cl := New(Config{
		Name: "a", MasterAddrs: []string{"master"}, Clock: clock.Realtime,
		Dialer:      lossyDialer{e.net.Dialer("client-a", transport.NodeConfig{}), lose},
		CallTimeout: testCallTimeout,
	})
	return cl, cl.Close
}

// abandon has vd write seeded bytes at off on a budget that reaches a
// replica but cannot commit, while lose is set, and returns the bytes.
func abandon(t *testing.T, vd *VDisk, lose *atomic.Int32, how int32, seed uint64, off int64) []byte {
	t.Helper()
	budget := vd.c.cfg.IOTimeout
	vd.c.cfg.IOTimeout = 50 * time.Millisecond
	lose.Store(how)
	data := seeded(seed)
	if err := vd.WriteAt(data, off); err == nil {
		t.Fatal("a write that reached at most one replica of three committed")
	}
	lose.Store(loseNothing)
	vd.c.cfg.IOTimeout = budget
	return data
}

// TestAbandonedWriteResyncsVersions: a write's budget runs out waiting for
// replicas its requests never reached, so it gives up holding a version that
// the replicas may or may not have applied. The next write drives it to its
// verdict first. When none applied it, running ahead instead is the wedge:
// nothing would ever fill the gap. When the primary alone did, handing the
// version out again would be worse: the primary would take the next write
// for the abandoned one's retry, ack it and drop its bytes. Either way the
// abandoned write lands, and the replicas agree. The next writes come four
// at once: one drives the orphan, the others wait for it.
func TestAbandonedWriteResyncsVersions(t *testing.T) {
	for _, tc := range []struct {
		name string
		lose int32
	}{{"no replica applied it", loseAll}, {"the primary alone applied it", loseBackups}} {
		t.Run(tc.name, func(t *testing.T) {
			clock.Test(t, func() {
				e, cleanup := newEnv(t)
				defer cleanup()
				var lose atomic.Int32
				cl, closeClient := lossyClient(e, &lose)
				defer closeClient()
				vd := e.vdisk(t, cl, "d", 128*util.MiB)
				mustRoundTrip(t, vd, 1, 0)

				abandoned := abandon(t, vd, &lose, tc.lose, 2, 4*util.KiB)
				var wg sync.WaitGroup
				for i := range 4 {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if err := vd.WriteAt(seeded(uint64(10+i)), int64(8+4*i)*util.KiB); err != nil {
							t.Errorf("write %d after the abandoned one: %v", i, err)
						}
					}()
				}
				wg.Wait()
				for i := range 4 {
					mustRead(t, vd, seeded(uint64(10+i)), int64(8+4*i)*util.KiB)
				}
				mustRead(t, vd, abandoned, 4*util.KiB)
				mustRoundTrip(t, vd, 4, 4*util.KiB) // over the abandoned write's range
				if next, committed, orphans := chunkState(vd, 0); orphans != 0 || next != 7 || committed != 7 {
					t.Errorf("chunk state after the verdict: next %d, committed %d, %d orphans; want 7, 7, 0", next, committed, orphans)
				}
				e.auditReplicas(t, vd, 32*util.KiB)
			})
		})
	}
}

// heldDialer's connections hold back every OpReplicate sent while hold is
// set, and deliver what they hold a millisecond before the next OpReplicate
// of another offset: the requests of a write that gave up land after the
// next write of the chunk was given its version, and before its own
// requests.
type heldDialer struct {
	transport.Dialer
	hold *atomic.Bool
}

func (d heldDialer) Dial(addr string) (transport.MsgConn, error) {
	c, err := d.Dialer.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &heldConn{MsgConn: c, hold: d.hold}, nil
}

type heldConn struct {
	transport.MsgConn
	hold *atomic.Bool
	mu   sync.Mutex
	held []*proto.Message
}

func (c *heldConn) Send(m *proto.Message) error {
	if m.Op != proto.OpReplicate {
		return c.MsgConn.Send(m)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hold.Load() {
		c.held = append(c.held, m)
		return nil
	}
	if len(c.held) > 0 && c.held[0].Off != m.Off {
		for _, h := range c.held {
			if err := c.MsgConn.Send(h); err != nil {
				bufpool.Put(h.Payload)
			}
		}
		c.held = nil
		time.Sleep(time.Millisecond) // the server runs them, concurrently with what follows
	}
	return c.MsgConn.Send(m)
}

// TestAbandonedWriteLandsAfterTheNextTakesAVersion: a write gives up while its
// requests are still in flight, and they land at every replica after the
// chunk's next write was given its version but before that write's own
// requests. Had the version been handed out again, every replica would take
// the next write for the abandoned one's retry, ack it and keep the
// abandoned bytes: the next write must read back its own, the replicas must
// agree, and the chunk's next version must never go back.
func TestAbandonedWriteLandsAfterTheNextTakesAVersion(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		var hold atomic.Bool
		cl := New(Config{
			Name: "a", MasterAddrs: []string{"master"}, Clock: clock.Realtime,
			Dialer:      heldDialer{e.net.Dialer("client-a", transport.NodeConfig{}), &hold},
			CallTimeout: testCallTimeout,
		})
		defer cl.Close()
		vd := e.vdisk(t, cl, "d", 128*util.MiB)
		mustRoundTrip(t, vd, 1, 0)

		budget := cl.cfg.IOTimeout
		cl.cfg.IOTimeout = 50 * time.Millisecond
		hold.Store(true)
		abandoned := seeded(2)
		if err := vd.WriteAt(abandoned, 4*util.KiB); err == nil {
			t.Fatal("a write no replica heard of committed")
		}
		hold.Store(false)
		cl.cfg.IOTimeout = budget
		before, _, _ := chunkState(vd, 0)

		mustRoundTrip(t, vd, 3, 8*util.KiB)
		if after, _, orphans := chunkState(vd, 0); after < before || orphans != 0 {
			t.Errorf("chunk's next version %d before the write, %d after it, %d orphans left", before, after, orphans)
		}
		mustRead(t, vd, abandoned, 4*util.KiB)
		e.auditReplicas(t, vd, 16*util.KiB)
	})
}

// TestUpgradeCarriesOrphans: a write gives up before a verdict, and the core
// is upgraded. The new core's next write of the chunk drives the orphan,
// as the old core's would have: dropped, it would leave a version no later
// write fills, and every one would wait for it until the vdisk is reopened.
func TestUpgradeCarriesOrphans(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		var lose atomic.Int32
		cl, closeClient := lossyClient(e, &lose)
		defer closeClient()
		vd := e.vdisk(t, cl, "d", 128*util.MiB)
		mustRoundTrip(t, vd, 1, 0)
		abandoned := abandon(t, vd, &lose, loseAll, 2, 4*util.KiB)

		vd2, err := cl.UpgradeVDisk(vd)
		if err != nil {
			t.Fatal(err)
		}
		defer vd2.Close()
		if _, _, orphans := chunkState(vd2, 0); orphans != 1 {
			t.Fatalf("the new core has %d orphans, want the old core's one", orphans)
		}
		mustRoundTrip(t, vd2, 3, 8*util.KiB)
		mustRead(t, vd2, abandoned, 4*util.KiB)
		e.auditReplicas(t, vd2, 16*util.KiB)
	})
}

// TestOrphanWaiterKeepsItsOwnDeadline: a chunk has an orphan, and another
// writer is driving it, stalled far longer than the next writer is willing
// to wait. That writer queues for the driver; it must fail when its own
// budget ends, not sit until the driver stops.
func TestOrphanWaiterKeepsItsOwnDeadline(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		cl := e.client(t, "a")
		vd := e.vdisk(t, cl, "d", 128*util.MiB)
		mustRoundTrip(t, vd, 1, 0)

		// A write takes a version and gives up before sending anything; a
		// driver of its orphan stalls.
		holder := opctx.New(clock.Realtime, time.Hour)
		defer holder.Release()
		version, err := vd.takeVersion(holder, 0)
		if err != nil {
			t.Fatal(err)
		}
		orphaned := seeded(2)
		ch := vd.chunks[0]
		driving := make(chan struct{})
		ch.mu.Lock()
		ch.orphans = []orphan{{version, 12 * util.KiB, orphaned}}
		ch.driving = driving
		ch.mu.Unlock()

		budget := cl.cfg.IOTimeout
		cl.cfg.IOTimeout = 50 * time.Millisecond
		done := make(chan error, 1)
		go func() { done <- vd.WriteAt(make([]byte, 4*util.KiB), 4*util.KiB) }()
		select {
		case err := <-done:
			if !errors.Is(err, util.ErrTimeout) {
				t.Errorf("write behind the stalled driver: %v, want its own timeout", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("a 50 ms write is still waiting for a stalled driver of the chunk's orphan")
		}
		cl.cfg.IOTimeout = budget

		// The driver stops without a verdict: the next write drives the
		// orphan itself, then goes through.
		ch.mu.Lock()
		close(driving)
		ch.driving = nil
		ch.mu.Unlock()
		mustRoundTrip(t, vd, 3, 8*util.KiB)
		mustRead(t, vd, orphaned, 12*util.KiB)
	})
}
