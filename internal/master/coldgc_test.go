package master

import (
	"testing"
	"time"

	"ursa/internal/clock"
	"ursa/internal/coldtier"
	"ursa/internal/objstore"
	"ursa/internal/opctx"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// coldGCEnv is an unreplicated master wired to a near-free object store on
// a simnet, with no chunk server — just enough to drive a reconcile pass's
// GC phase against hand-crafted metadata.
type coldGCEnv struct {
	net   *transport.SimNet
	m     *Master
	store *objstore.Store
	op    *opctx.Op
}

func newColdGCEnv(t *testing.T) (*coldGCEnv, func()) {
	t.Helper()
	clk := clock.Realtime
	net := transport.NewSimNet(clk, 0)

	store := objstore.New(clk, objstore.TestModel())
	ol, err := net.Listen("objstore", transport.NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rpc := transport.Serve(ol, store.Handler)

	ml, err := net.Listen("master", transport.NodeConfig{})
	if err != nil {
		rpc.Close()
		t.Fatal(err)
	}
	m := New(Config{
		Addr:         "master",
		Clock:        clk,
		Dialer:       net.Dialer("master", transport.NodeConfig{}),
		RPCTimeout:   time.Second,
		ObjstoreAddr: "objstore",
	})
	m.Serve(ml)
	e := &coldGCEnv{net: net, m: m, store: store, op: opctx.New(clk, time.Minute)}
	return e, func() {
		e.op.Release()
		m.Close()
		rpc.Close()
	}
}

// flushSegment hand-flushes n random extents into a freshly allocated
// segment range, the way a snapshot flush would, and returns the refs.
func (e *coldGCEnv) flushSegment(t *testing.T, n int) []coldtier.ExtentRef {
	t.Helper()
	return flushSegmentAt(t, e.m, e.op, allocSegs(t, e.m), n)
}

// allocSegs reserves one chunk's worth of segment IDs through the commit
// path.
func allocSegs(t *testing.T, m *Master) uint64 {
	t.Helper()
	m.mu.Lock()
	lo := m.st.nextSeg
	m.mu.Unlock()
	commit(t, m, entry{AllocSegs: &entryAllocSegs{NextSeg: lo + coldtier.SegsPerChunk}})
	return lo
}

// flushSegmentAt writes n random extents into the segment range starting at
// lo, through m's object-store client. It allocates nothing: with lo at the
// watermark this is a flush whose IDs the watermark does not cover yet.
func flushSegmentAt(t *testing.T, m *Master, op *opctx.Op, lo uint64, n int) []coldtier.ExtentRef {
	t.Helper()
	w := coldtier.NewSegWriter(m.coldCl, op, lo, lo+coldtier.SegsPerChunk)
	data := make([]byte, coldtier.ExtentSize)
	for i := 0; i < n; i++ {
		util.NewRand(uint64(i + 1)).Fill(data)
		if err := w.Add(int64(i)*coldtier.ExtentSize, data); err != nil {
			t.Fatal(err)
		}
	}
	refs, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != n {
		t.Fatalf("flushed %d extents, got %d refs", n, len(refs))
	}
	return refs
}

// commit runs one entry through m's commit path.
func commit(t *testing.T, m *Master, e entry) {
	t.Helper()
	m.mu.Lock()
	if err := m.commitUnlock(e); err != nil {
		t.Fatal(err)
	}
}

// TestColdGCWatermarkSkipsInflightFlush pins the GC safety rules: a pass's
// GC phase is skipped entirely while a flush is in flight, and segments at or
// above the watermark are never judged. No pass commits a log entry.
func TestColdGCWatermarkSkipsInflightFlush(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newColdGCEnv(t)
		defer cleanup()
		reclaimed := e.m.cfg.Metrics.Counter(MetricGCSegmentsReclaimed)
		gc := func() int64 {
			t.Helper()
			seq, before := e.m.LogSeq(), reclaimed.Load()
			if _, err := e.m.Reconcile(); err != nil {
				t.Fatal(err)
			}
			if got := e.m.LogSeq(); got != seq {
				t.Fatalf("gc pass moved the log from seq %d to %d", seq, got)
			}
			return reclaimed.Load() - before
		}
		// Segment A: allocated, so it sits below the watermark, and no metadata
		// references it — only the in-flight veto keeps a pass off it.
		e.flushSegment(t, 1)
		// Segment B: a flush caught mid-way, written at the watermark — above
		// everything allocated — and unreferenced too.
		e.m.mu.Lock()
		wm := e.m.st.nextSeg
		e.m.mu.Unlock()
		flushSegmentAt(t, e.m, e.op, wm, 1)

		// A pass while a flush is in flight is vetoed whole: A survives.
		e.m.mu.Lock()
		e.m.inflightFlushes++
		e.m.mu.Unlock()
		if n := gc(); n != 0 {
			t.Fatalf("gc under in-flight flush: reclaimed %d, want 0", n)
		}
		e.m.mu.Lock()
		e.m.inflightFlushes--
		e.m.mu.Unlock()

		// Without the veto A goes; B sits at the watermark and is not judged.
		if n := gc(); n != 1 {
			t.Fatalf("gc above watermark: reclaimed %d, want 1", n)
		}
		if e.store.UsedBytes() == 0 {
			t.Fatal("gc judged a segment at the watermark")
		}

		// Move the watermark past B: now it is garbage and goes.
		commit(t, e.m, entry{AllocSegs: &entryAllocSegs{NextSeg: wm + coldtier.SegsPerChunk}})
		if n := gc(); n != 1 {
			t.Fatalf("gc after flush settled: reclaimed %d, want 1", n)
		}
		if used := e.store.UsedBytes(); used != 0 {
			t.Fatalf("store still holds %d bytes", used)
		}
	})
}
