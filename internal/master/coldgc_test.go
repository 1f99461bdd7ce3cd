package master

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/bufpool"
	"ursa/internal/chunkserver"
	"ursa/internal/clock"
	"ursa/internal/coldtier"
	"ursa/internal/metrics"
	"ursa/internal/objstore"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/redundancy"
	"ursa/internal/simdisk"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// coldGCEnv is an unreplicated master wired to a near-free object store on
// a simnet — just enough to drive RunColdGC against hand-crafted metadata.
type coldGCEnv struct {
	net   *transport.SimNet
	m     *Master
	store *objstore.Store
	op    *opctx.Op
}

func newColdGCEnv(t *testing.T) *coldGCEnv {
	t.Helper()
	clk := clock.Realtime
	net := transport.NewSimNet(clk, 0)

	store := objstore.New(clk, objstore.TestModel())
	ol, err := net.Listen("objstore", transport.NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rpc := transport.Serve(ol, store.Handler)
	t.Cleanup(rpc.Close)

	ml, err := net.Listen("master", transport.NodeConfig{})
	if err != nil {
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
	t.Cleanup(m.Close)
	return &coldGCEnv{net: net, m: m, store: store, op: opctx.New(clk, time.Minute)}
}

// flushSegment hand-flushes n random extents into a freshly allocated
// segment range, the way a snapshot flush would, and returns the refs and
// the extent payloads.
func (e *coldGCEnv) flushSegment(t *testing.T, n int) ([]coldtier.ExtentRef, [][]byte) {
	t.Helper()
	return flushSegmentAt(t, e.m, e.op, allocSegs(t, e.m), n)
}

// allocSegs reserves one chunk's worth of segment IDs through the commit
// path.
func allocSegs(t *testing.T, m *Master) uint64 {
	t.Helper()
	m.mu.Lock()
	lo, err := m.allocSegsLocked(coldtier.SegsPerChunk)
	m.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	return lo
}

// flushSegmentAt writes n random extents into the segment range starting at
// lo, through m's object-store client. It allocates nothing: with lo at the
// watermark this is a flush whose IDs the watermark does not cover yet.
func flushSegmentAt(t *testing.T, m *Master, op *opctx.Op, lo uint64, n int) ([]coldtier.ExtentRef, [][]byte) {
	t.Helper()
	w := coldtier.NewSegWriter(m.coldCl, op, lo, lo+coldtier.SegsPerChunk)
	data := make([][]byte, n)
	for i := range data {
		data[i] = make([]byte, coldtier.ExtentSize)
		util.NewRand(uint64(i + 1)).Fill(data[i])
		if err := w.Add(int64(i)*coldtier.ExtentSize, data[i]); err != nil {
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
	return refs, data
}

// commit runs one entry through m's commit path.
func commit(t *testing.T, m *Master, e entry) {
	t.Helper()
	m.mu.Lock()
	err := m.commitLocked(e)
	m.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}

// TestColdGCRewritesPartiallyDeadSegment drives the compaction arm: a
// segment whose live fraction fell under gcLiveFraction is rewritten, the
// referencing metadata is remapped atomically, and the old location turns
// into ErrNotFound — the exact signal a chunkserver's stale-ref fetch uses
// to refresh.
func TestColdGCRewritesPartiallyDeadSegment(t *testing.T) {
	e := newColdGCEnv(t)

	refs, data := e.flushSegment(t, 3)
	// Metadata keeps only the middle extent: 1 of 3 MiB live (< 0.5).
	commit(t, e.m, entry{PutSnapshot: &entryPutSnapshot{NextID: 1, Meta: SnapshotMeta{
		ID: 1, Name: "s", Size: util.ChunkSize,
		Chunks: [][]coldtier.ExtentRef{{refs[1]}},
	}}})

	reclaimed, rewritten, err := e.m.RunColdGC()
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed != 1 || rewritten != coldtier.ExtentSize {
		t.Fatalf("gc: reclaimed=%d rewritten=%d, want 1 and %d",
			reclaimed, rewritten, coldtier.ExtentSize)
	}

	snap, err := e.m.GetSnapshot("s")
	if err != nil {
		t.Fatal(err)
	}
	newRef := snap.Chunks[0][0]
	if newRef.Seg == refs[1].Seg {
		t.Fatal("snapshot ref still points at the compacted segment")
	}
	if newRef.ChunkOff != refs[1].ChunkOff || newRef.Len != refs[1].Len {
		t.Fatalf("remap changed the chunk range: %+v -> %+v", refs[1], newRef)
	}
	got, err := e.m.coldCl.GetExtent(e.op, newRef)
	if err != nil {
		t.Fatal(err)
	}
	same := bytes.Equal(got, data[1])
	bufpool.Put(got)
	if !same {
		t.Fatal("rewritten extent bytes differ from the original")
	}
	// The stale location must miss cleanly — this drives refresh-on-
	// NotFound in the chunkserver's demand-fetch path.
	if _, err := e.m.coldCl.GetExtent(e.op, refs[1]); !errors.Is(err, util.ErrNotFound) {
		t.Fatalf("stale ref fetch: %v, want ErrNotFound", err)
	}

	// Drop the snapshot: the next pass reclaims the rewrite too and the
	// store drains to zero.
	if err := e.m.DeleteSnapshot("s"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.m.RunColdGC(); err != nil {
		t.Fatal(err)
	}
	if used := e.store.UsedBytes(); used != 0 {
		t.Fatalf("store still holds %d bytes after full reclaim", used)
	}
}

// TestColdGCWatermarkSkipsInflightFlush pins the GC safety rules: a pass
// is skipped entirely while a flush is in flight, and segments at or above
// the watermark are never judged.
func TestColdGCWatermarkSkipsInflightFlush(t *testing.T) {
	e := newColdGCEnv(t)
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
	if n, _, err := e.m.RunColdGC(); err != nil || n != 0 {
		t.Fatalf("gc under in-flight flush: reclaimed=%d err=%v, want 0 and nil", n, err)
	}
	e.m.mu.Lock()
	e.m.inflightFlushes--
	e.m.mu.Unlock()

	// Without the veto A goes; B sits at the watermark and is not judged.
	if n, _, err := e.m.RunColdGC(); err != nil || n != 1 {
		t.Fatalf("gc above watermark: reclaimed=%d err=%v, want 1 and nil", n, err)
	}
	if e.store.UsedBytes() == 0 {
		t.Fatal("gc judged a segment at the watermark")
	}

	// Move the watermark past B: now it is garbage and goes.
	commit(t, e.m, entry{AllocSegs: &entryAllocSegs{NextSeg: wm + coldtier.SegsPerChunk}})
	if n, _, err := e.m.RunColdGC(); err != nil || n != 1 {
		t.Fatalf("gc after flush settled: reclaimed=%d err=%v, want 1 and nil", n, err)
	}
	if used := e.store.UsedBytes(); used != 0 {
		t.Fatalf("store still holds %d bytes", used)
	}
}

// TestStaleColdRefRefreshedFromMaster: GC rewrites a mostly-dead segment
// under a clone's replica that has not fetched its extent yet. The replica's
// fetch at the old location misses with ErrNotFound; it refreshes its refs
// from the master (MOpGetColdRefs), fetches the extent from the new segment,
// and the read returns the original bytes.
func TestStaleColdRefRefreshedFromMaster(t *testing.T) {
	e := newColdGCEnv(t)
	reg := metrics.NewRegistry()
	srv := chunkserver.New(chunkserver.Config{
		Addr: "s0/ssd", Clock: clock.Realtime, Dialer: e.net.Dialer("s0/ssd", transport.NodeConfig{}),
		MasterAddrs: []string{"master"}, ReplTimeout: time.Second, Metrics: reg,
	}, blockstore.New(simdisk.NewSSD(fastSSD(), clock.Realtime), 0), nil)
	l, err := e.net.Listen("s0/ssd", transport.NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(l)
	t.Cleanup(srv.Close)

	refs, data := e.flushSegment(t, 3)
	// The clone's chunk references only the middle extent: 1 of 3 MiB live.
	meta := VDiskMeta{
		ID: 1, Name: "clone", Size: util.ChunkSize, StripeGroup: 1, StripeUnit: defaultStripeUnit, LeaseTTL: 10 * time.Second,
		Chunks: []ChunkMeta{{View: 1, Replicas: []ReplicaInfo{{Addr: "s0/ssd", SSD: true}}, Cold: []coldtier.ExtentRef{refs[1]}}},
	}
	commit(t, e.m, entry{PutVDisk: &entryPutVDisk{Meta: meta, NextID: meta.ID}})
	if err := e.m.createChunks(meta.ID, meta.Chunks, redundancy.Spec{}); err != nil {
		t.Fatal(err)
	}
	if reclaimed, _, err := e.m.RunColdGC(); err != nil || reclaimed != 1 {
		t.Fatalf("gc: reclaimed %d (%v), want the mostly-dead segment rewritten", reclaimed, err)
	}

	r := srv.Handle(&proto.Message{
		Op: proto.OpRead, Chunk: blockstore.MakeChunkID(meta.ID, 0), Off: refs[1].ChunkOff, Length: uint32(refs[1].Len), View: 1,
	})
	if r.Status != proto.StatusOK || !bytes.Equal(r.Payload, data[1]) {
		t.Fatalf("read of the rewritten extent: %s, bytes match %v", r.Status, bytes.Equal(r.Payload, data[1]))
	}
	bufpool.Put(r.Payload)
	if n := reg.Counter(chunkserver.MetricColdFetches).Load(); n != 1 {
		t.Errorf("cold fetches = %d, want 1", n)
	}
}
