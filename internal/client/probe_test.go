package client

import (
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ursa/internal/clock"
	"ursa/internal/master"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// countingDialer counts the messages its connections send, by destination
// address and op.
type countingDialer struct {
	transport.Dialer
	mu   *sync.Mutex
	sent map[string]map[proto.Op]int
}

func newCountingDialer(d transport.Dialer) countingDialer {
	return countingDialer{d, new(sync.Mutex), make(map[string]map[proto.Op]int)}
}

func (d countingDialer) Dial(addr string) (transport.MsgConn, error) {
	c, err := d.Dialer.Dial(addr)
	if err != nil {
		return nil, err
	}
	return countingConn{c, addr, d}, nil
}

// take returns the counts so far and starts over.
func (d countingDialer) take() map[string]map[proto.Op]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]map[proto.Op]int, len(d.sent))
	for addr, byOp := range d.sent {
		out[addr] = byOp
		delete(d.sent, addr)
	}
	return out
}

type countingConn struct {
	transport.MsgConn
	addr string
	d    countingDialer
}

func (c countingConn) Send(m *proto.Message) error {
	c.d.mu.Lock()
	if c.d.sent[c.addr] == nil {
		c.d.sent[c.addr] = make(map[proto.Op]int)
	}
	c.d.sent[c.addr][m.Op]++
	c.d.mu.Unlock()
	return c.MsgConn.Send(m)
}

// TestOpenProbesOncePerAddress: opening a 256-chunk vdisk costs one master
// call and one version probe per address that holds a replica — not one per
// replica of every chunk (768) — and leaves every chunk ready for I/O.
func TestOpenProbesOncePerAddress(t *testing.T) {
	clock.Test(t, func() {
		const chunks = 256
		e, cleanup := newEnvSized(t, 16*util.GiB, 64*util.GiB) // 4 × 256 primary slots, 4 × 512 backup slots
		defer cleanup()
		dialer := newCountingDialer(e.net.Dialer("client-a", transport.NodeConfig{}))
		cl := New(Config{Name: "a", MasterAddrs: []string{"master"}, Clock: clock.Realtime, Dialer: dialer, CallTimeout: testCallTimeout})
		defer cl.Close()
		meta, err := cl.CreateVDisk(master.CreateVDiskReq{Name: "wide", Size: chunks * util.ChunkSize})
		if err != nil {
			t.Fatal(err)
		}
		holders := make(map[string]bool)
		for _, cm := range meta.Chunks {
			for _, r := range cm.Replicas {
				holders[r.Addr] = true
			}
		}
		dialer.take()

		vd, err := cl.Open("wide")
		if err != nil {
			t.Fatal(err)
		}
		sent := dialer.take()
		defer vd.Close()
		if got := sent["master"]; len(got) != 1 || got[proto.MOpOpenVDisk] != 1 {
			t.Errorf("open sent the master %v, want one MOpOpenVDisk", got)
		}
		delete(sent, "master")
		for addr := range holders {
			if got := sent[addr]; len(got) != 1 || got[proto.OpGetVersion] != 1 {
				t.Errorf("open sent %s %v, want one OpGetVersion", addr, got)
			}
			delete(sent, addr)
		}
		if len(sent) != 0 {
			t.Errorf("open sent messages to servers holding no replica: %v", sent)
		}
		if len(holders) != 8 {
			t.Fatalf("%d servers hold replicas, want all 8: the test exercised less than it means to", len(holders))
		}
		mustRoundTrip(t, vd, 1, 0)
		mustRoundTrip(t, vd, 2, (chunks-1)*util.ChunkSize)
	})
}

// TestOpenRepairsOnlyTheChunkThatDisagrees: one chunk's primary is a version
// ahead of its backups when the vdisk is opened. The probe batch shows it;
// that chunk alone goes to the master for repair and comes back in a new
// view, the others are adopted as probed.
func TestOpenRepairsOnlyTheChunkThatDisagrees(t *testing.T) {
	clock.Test(t, func() {
		const chunks, torn = 4, 2
		e, cleanup := newEnv(t)
		defer cleanup()
		var lose atomic.Int32
		dialer := newCountingDialer(lossyDialer{e.net.Dialer("client-a", transport.NodeConfig{}), &lose})
		cl := New(Config{Name: "a", MasterAddrs: []string{"master"}, Clock: clock.Realtime, Dialer: dialer, CallTimeout: testCallTimeout})
		defer cl.Close()
		vd := e.vdisk(t, cl, "d", chunks*util.ChunkSize)
		for i := int64(0); i < chunks; i++ {
			mustRoundTrip(t, vd, uint64(i+1), i*util.ChunkSize)
		}
		abandon(t, vd, &lose, loseBackups, 5, torn*util.ChunkSize+4*util.KiB)
		vd.Close()
		dialer.take()

		vd, err := cl.Open("d")
		if err != nil {
			t.Fatal(err)
		}
		defer vd.Close()
		if got := dialer.take()["master"]; got[proto.MOpReportFailure] != 1 {
			t.Errorf("open sent the master %v, want exactly one MOpReportFailure", got)
		}
		for i, ch := range vd.chunks {
			wantView := uint64(1)
			if i == torn {
				wantView = 3 // sealed at 2
			}
			if ch.meta.View != wantView || ch.next != ch.committed || len(ch.orphans) != 0 {
				t.Errorf("chunk %d after open: view %d (want %d), next %d, committed %d, %d orphans",
					i, ch.meta.View, wantView, ch.next, ch.committed, len(ch.orphans))
			}
		}
		for i := int64(0); i < chunks; i++ {
			mustRoundTrip(t, vd, uint64(10+i), i*util.ChunkSize+8*util.KiB)
		}
	})
}

// sleepLog is a clock that notes, for every Sleep, when it asked to wake.
type sleepLog struct {
	clock.Clock
	mu    sync.Mutex
	wakes []time.Time
}

func (c *sleepLog) Sleep(d time.Duration) {
	c.mu.Lock()
	c.wakes = append(c.wakes, c.Now().Add(d))
	c.mu.Unlock()
	c.Clock.Sleep(d)
}

// TestProbeBacksOffWithinItsBudget: a chunk whose replicas disagree, and keep
// disagreeing whatever the master answers, is probed again after each of the
// client's back-offs. A back-off is admission queueing from the op's point of
// view, so it shows in the op's queue stage, and none asks to wake past the
// op's deadline: the probe gives up at its budget, not a sleep after it.
func TestProbeBacksOffWithinItsBudget(t *testing.T) {
	clock.Test(t, func() {
		net := transport.NewSimNet(clock.Realtime, 0)
		var servers []*transport.Server
		defer func() {
			for _, s := range servers {
				s.Close()
			}
		}()
		serve := func(addr string, h transport.Handler) {
			l, err := net.Listen(addr, transport.NodeConfig{})
			if err != nil {
				t.Fatal(err)
			}
			servers = append(servers, transport.Serve(l, h))
		}
		cm := master.ChunkMeta{View: 1, Replicas: []master.ReplicaInfo{{Addr: "r0"}, {Addr: "r1"}, {Addr: "r2"}}}
		for i, r := range cm.Replicas {
			version := uint64(5 - i%2) // r1 is a version behind the others
			serve(r.Addr, func(m *proto.Message) *proto.Message {
				return m.ReplyBatch([]proto.ChunkResult{{Status: proto.StatusOK, Version: version, View: cm.View}})
			})
		}
		body, err := json.Marshal(cm)
		if err != nil {
			t.Fatal(err)
		}
		serve("master", func(m *proto.Message) *proto.Message { // every report: "repaired", in the same view
			r := m.Reply(proto.StatusOK)
			r.Payload = append([]byte(nil), body...)
			return r
		})
		clk := &sleepLog{Clock: clock.Realtime}
		cl := New(Config{Name: "a", MasterAddrs: []string{"master"}, Clock: clk,
			Dialer: net.Dialer("client-a", transport.NodeConfig{}), CallTimeout: time.Second})
		defer cl.Close()
		vd := newVDisk(cl, master.VDiskMeta{ID: 1, Size: util.ChunkSize, Chunks: []master.ChunkMeta{cm}}, time.Time{})

		const budget = 5 * time.Millisecond
		op := opctx.New(clk, budget)
		defer op.Release()
		deadline := clk.Now().Add(budget)
		if err := vd.confirmChunks(op); !errors.Is(err, util.ErrTimeout) {
			t.Fatalf("probe of replicas that never agree: %v, want a timeout", err)
		}
		var queued opctx.StageSample
		for _, s := range op.Trail() {
			if s.Stage == opctx.StageQueue {
				queued = s
			}
		}
		clk.mu.Lock()
		defer clk.mu.Unlock()
		if queued.Count == 0 || queued.Count != int64(len(clk.wakes)) {
			t.Errorf("%d back-offs in the queue stage, %d sleeps: want every wait between probes there",
				queued.Count, len(clk.wakes))
		}
		for i, w := range clk.wakes {
			if late := w.Sub(deadline); late > time.Millisecond {
				t.Errorf("back-off %d asked to wake %v past the op's deadline", i, late)
			}
		}
	})
}
