package chunkserver

import (
	"sync/atomic"
	"testing"
	"time"

	"ursa/internal/clock"
	"ursa/internal/coldtier"
	"ursa/internal/objstore"
	"ursa/internal/proto"
	"ursa/internal/transport"
)

// TestColdFetchOfMissingSegmentFailsAtOnce: GC deletes only segments no
// table names, so a demand fetch whose segment is gone has lost data. The
// read fails after one GET; retrying cannot bring the segment back.
func TestColdFetchOfMissingSegmentFailsAtOnce(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newRebuildEnv(t)
		defer cleanup()
		store := objstore.New(clock.Realtime, objstore.TestModel())
		l, err := e.net.Listen("obj", transport.NodeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		var gets atomic.Int64
		rpc := transport.Serve(l, func(m *proto.Message) *proto.Message {
			if m.Op == proto.OpObjGet {
				gets.Add(1)
			}
			return store.Handler(m)
		})
		defer rpc.Close()

		srv := e.start("s", false, nil, time.Second)
		mustCreate(t, srv, CreateChunkReq{View: 1, ObjAddr: "obj",
			Cold: []coldtier.ExtentRef{{Seg: 1, Len: coldtier.ExtentSize}}})
		if r := srv.Handle(&proto.Message{Op: proto.OpRead, Chunk: testChunk, Length: 4096, View: 1}); r.Status == proto.StatusOK {
			t.Fatal("a read of an extent whose segment is gone succeeded")
		}
		if n := gets.Load(); n != 1 {
			t.Fatalf("the fetch of a missing segment sent %d GETs, want 1", n)
		}
	})
}
