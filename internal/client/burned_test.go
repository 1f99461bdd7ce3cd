package client

import (
	"bytes"
	"errors"
	"strings"
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

// A write that gives up used to keep the version it was assigned. When no
// replica had applied it, every later write of the chunk carried a version
// ahead of the replicas' and failed until the vdisk was reopened.

func mustRoundTrip(t *testing.T, vd *VDisk, seed uint64, off int64) {
	t.Helper()
	data := make([]byte, 4*util.KiB)
	util.NewRand(seed).Fill(data)
	if err := vd.WriteAt(data, off); err != nil {
		t.Fatalf("write at %d: %v", off, err)
	}
	got := make([]byte, len(data))
	if err := vd.ReadAt(got, off); err != nil {
		t.Fatalf("read at %d: %v", off, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read at %d returned other bytes than written", off)
	}
}

// TestSpentBudgetWriteTakesNoVersion: a write whose budget is gone before it
// can send anything (a throttled write, or a budget too short to commit
// anything at all) fails without consuming a version. It runs on the real
// clock, where 1 ns has passed by the time the write takes a version; in a
// bubble no time has, so the write goes out with 1 ns left and gives up while
// the replicas still apply it — and the probe that follows can answer before
// they do, so the version is handed out again (a race the exact clock shows,
// not what this test is about).
func TestSpentBudgetWriteTakesNoVersion(t *testing.T) {
	if err := clock.Join(func() {
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

		mustRoundTrip(t, vd, 2, 8*util.KiB)
		if st := vd.Stats(); st.Retries != 0 {
			t.Errorf("the writes after the failed one needed %d retries", st.Retries)
		}
	}); err != nil {
		t.Fatal(err)
	}
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

// TestAbandonedWriteResyncsVersions: a write's budget runs out waiting for
// replicas its requests never reached, so it gives up holding a version that
// the replicas may or may not have applied. The next write must find out —
// probe, have the master level the replicas if they differ, resume from the
// version they agree on. When none applied it, running ahead instead is the
// wedge: the replicas agree, so nothing ever fills the gap. When the primary
// alone did, handing the version out again would be worse: the primary would
// take the next write for the abandoned one's retry, ack it and drop its
// bytes.
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
				cl := New(Config{
					Name: "a", MasterAddrs: []string{"master"}, Clock: clock.Realtime,
					Dialer:      lossyDialer{e.net.Dialer("client-a", transport.NodeConfig{}), &lose},
					CallTimeout: testCallTimeout,
				})
				defer cl.Close()
				vd := e.vdisk(t, cl, "d", 128*util.MiB)
				mustRoundTrip(t, vd, 1, 0)

				budget := cl.cfg.IOTimeout
				cl.cfg.IOTimeout = 50 * time.Millisecond // time to reach a replica, not to commit
				lose.Store(tc.lose)
				abandoned := make([]byte, 4*util.KiB)
				util.NewRand(2).Fill(abandoned)
				if err := vd.WriteAt(abandoned, 4*util.KiB); err == nil {
					t.Fatal("a write that reached at most one replica of three committed")
				}
				lose.Store(loseNothing)
				cl.cfg.IOTimeout = budget

				mustRoundTrip(t, vd, 3, 8*util.KiB)
				mustRoundTrip(t, vd, 4, 4*util.KiB) // over the abandoned write's range
				ch := vd.chunks[0]
				ch.mu.Lock()
				next, committed, burned := ch.next, ch.committed, ch.burned
				ch.mu.Unlock()
				if burned || next != committed {
					t.Errorf("chunk state after the resync: next %d, committed %d, burned %v", next, committed, burned)
				}
			})
		})
	}
}

// TestBurnedChunkWaiterKeepsItsOwnDeadline: a chunk is burned while another
// write still holds a version and is stalled far longer than the next
// writer is willing to wait. That writer queues for the holders to settle;
// it must fail when its own budget ends, not sit until theirs do.
func TestBurnedChunkWaiterKeepsItsOwnDeadline(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		cl := e.client(t, "a")
		vd := e.vdisk(t, cl, "d", 128*util.MiB)
		mustRoundTrip(t, vd, 1, 0)

		// Two writes take versions; one gives up, the other stalls.
		holder := opctx.New(clock.Realtime, time.Hour)
		defer holder.Release()
		gaveUp, err := vd.takeVersion(holder, 0)
		if err != nil {
			t.Fatal(err)
		}
		stalled, err := vd.takeVersion(holder, 0)
		if err != nil {
			t.Fatal(err)
		}
		ch := vd.chunks[0]
		ch.settleVersion(gaveUp, false)

		budget := cl.cfg.IOTimeout
		cl.cfg.IOTimeout = 50 * time.Millisecond
		done := make(chan error, 1)
		go func() { done <- vd.WriteAt(make([]byte, 4*util.KiB), 4*util.KiB) }()
		select {
		case err := <-done:
			if !errors.Is(err, util.ErrTimeout) {
				t.Errorf("write behind the stalled holder: %v, want its own timeout", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("a 50 ms write is still waiting for a stalled holder of the burned chunk")
		}
		cl.cfg.IOTimeout = budget

		// The holder settles at last: the waiter, if it is still there, and every
		// later write go through the resync.
		ch.settleVersion(stalled, false)
		mustRoundTrip(t, vd, 2, 8*util.KiB)
	})
}
