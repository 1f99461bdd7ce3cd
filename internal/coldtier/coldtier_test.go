package coldtier

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/objstore"
	"ursa/internal/opctx"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// harness serves an objstore over a SimNet and returns a coldtier client
// for it, plus the raw store for fault arming.
func harness(t *testing.T) (*Client, *objstore.Store) {
	t.Helper()
	net := transport.NewSimNet(clock.Realtime, 0)
	store := objstore.New(clock.Realtime, objstore.TestModel())
	l, err := net.Listen("objstore", transport.NodeConfig{})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := transport.Serve(l, store.Handler)
	peers := transport.NewPeers(net.Dialer("test-client", transport.NodeConfig{}), clock.Realtime)
	t.Cleanup(func() {
		peers.CloseAll()
		srv.Close()
	})
	return NewClient(peers, "objstore"), store
}

func op() *opctx.Op { return opctx.New(clock.Realtime, 5*time.Second) }

func TestSegWriterRoundTrip(t *testing.T) {
	cl, _ := harness(t)

	// Three extents: data, zeros (suppressed), data. Small segment sizes
	// are exercised by packing more bytes than one SegmentTarget would
	// need only in the full-size bench; here the refs/CRC plumbing is the
	// point.
	a := bytes.Repeat([]byte{0x11}, 4096)
	z := make([]byte, 4096)
	b := bytes.Repeat([]byte{0x22}, 4096)

	w := NewSegWriter(cl, op(), 100, 100+SegsPerChunk)
	if err := w.Add(0, a); err != nil {
		t.Fatalf("add a: %v", err)
	}
	if err := w.Add(4096, z); err != nil {
		t.Fatalf("add zeros: %v", err)
	}
	if err := w.Add(8192, b); err != nil {
		t.Fatalf("add b: %v", err)
	}
	refs, err := w.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if len(refs) != 2 {
		t.Fatalf("got %d refs, want 2 (zero extent suppressed)", len(refs))
	}
	if refs[0].ChunkOff != 0 || refs[1].ChunkOff != 8192 {
		t.Fatalf("refs cover offsets %d,%d; want 0,8192", refs[0].ChunkOff, refs[1].ChunkOff)
	}

	for i, want := range [][]byte{a, b} {
		got, err := cl.GetExtent(op(), refs[i])
		if err != nil {
			t.Fatalf("get extent %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("extent %d: wrong bytes", i)
		}
		bufpool.Put(got)
	}
}

func TestGetExtentDetectsCorruption(t *testing.T) {
	cl, store := harness(t)
	data := bytes.Repeat([]byte{0x33}, 8192)
	w := NewSegWriter(cl, op(), 1, 1+SegsPerChunk)
	if err := w.Add(0, data); err != nil {
		t.Fatalf("add: %v", err)
	}
	refs, err := w.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}

	// One corrupted transfer: the CRC must catch it, and the retry reads
	// clean bytes — exactly the transient bit-rot recovery the demand-fetch
	// path relies on.
	store.CorruptReads(1)
	if _, err := cl.GetExtent(op(), refs[0]); !errors.Is(err, util.ErrCorrupt) {
		t.Fatalf("corrupted fetch: got %v, want ErrCorrupt", err)
	}
	got, err := cl.GetExtent(op(), refs[0])
	if err != nil {
		t.Fatalf("retry fetch: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("retry fetch: wrong bytes")
	}
	bufpool.Put(got)
}

func TestClientSegmentLifecycle(t *testing.T) {
	cl, _ := harness(t)
	data := bytes.Repeat([]byte{0x44}, 1024)
	if err := cl.PutSegment(op(), 5, data); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := cl.PutSegment(op(), 5, data); !errors.Is(err, util.ErrExists) {
		t.Fatalf("re-put: got %v, want ErrExists", err)
	}
	segs, err := cl.ListSegments(op())
	if err != nil || len(segs) != 1 || segs[0].Seg != 5 || segs[0].Size != 1024 {
		t.Fatalf("list: %v, %v", segs, err)
	}
	got, err := cl.GetRange(op(), 5, 256, 512)
	if err != nil {
		t.Fatalf("get range: %v", err)
	}
	if !bytes.Equal(got, data[256:768]) {
		t.Fatal("get range: wrong bytes")
	}
	bufpool.Put(got)
	if err := cl.DeleteSegment(op(), 5); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := cl.DeleteSegment(op(), 5); !errors.Is(err, util.ErrNotFound) {
		t.Fatalf("re-delete: got %v, want ErrNotFound", err)
	}
	if _, err := cl.GetRange(op(), 5, 0, 16); !errors.Is(err, util.ErrNotFound) {
		t.Fatalf("get after delete: got %v, want ErrNotFound", err)
	}
}
