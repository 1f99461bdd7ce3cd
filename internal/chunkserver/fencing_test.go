package chunkserver

import (
	"testing"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/clock"
	"ursa/internal/metrics"
	"ursa/internal/proto"
	"ursa/internal/simdisk"
	"ursa/internal/transport"
)

// newFencedServer builds a standalone primary-role server with a metrics
// registry, for exercising the master-epoch fence directly through Handle.
// The test defers the server's Close.
func newFencedServer(t *testing.T) (*Server, *metrics.Registry) {
	t.Helper()
	clk := clock.Realtime
	net := transport.NewSimNet(clk, time.Microsecond)
	reg := metrics.NewRegistry()
	store := blockstore.New(simdisk.NewSSD(fastSSD(), clk), 0)
	srv := New(Config{
		Addr: "f", Clock: clk,
		Dialer:  net.Dialer("f", transport.NodeConfig{}),
		Metrics: reg,
	}, store, nil)
	l, err := net.Listen("f", transport.NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(l)
	return srv, reg
}

func TestEpochFenceRejectsStaleMasterCommands(t *testing.T) {
	clock.Test(t, func() {
		srv, reg := newFencedServer(t)
		defer srv.Close()

		// A fencing OpNop from the epoch-5 primary is adopted.
		resp := srv.Handle(&proto.Message{Op: proto.OpNop, Epoch: 5})
		if resp.Status != proto.StatusOK {
			t.Fatalf("OpNop@5 = %s", resp.Status)
		}
		if got := srv.MasterEpoch(); got != 5 {
			t.Fatalf("MasterEpoch = %d, want 5", got)
		}

		// Master-driven commands from older epochs are fenced, and the reply
		// carries the epoch that fenced them so the deposed master learns why.
		for _, op := range []proto.Op{proto.OpSetView, proto.OpCreateChunk, proto.OpFill} {
			resp = srv.Handle(&proto.Message{Op: op, Chunk: testChunk, View: 2, Epoch: 3})
			if resp.Status != proto.StatusStaleEpoch {
				t.Fatalf("%v@3 = %s, want stale-epoch", op, resp.Status)
			}
			if resp.Epoch != 5 {
				t.Fatalf("%v@3 fencing epoch = %d, want 5", op, resp.Epoch)
			}
		}
		if n := reg.Counter(MetricStaleEpochRejections).Load(); n != 3 {
			t.Fatalf("stale rejections = %d, want 3", n)
		}

		// The fence never rolls back: the current epoch sails through, and a
		// newer one is adopted in passing by any master-driven command.
		resp = srv.Handle(&proto.Message{Op: proto.OpNop, Epoch: 5})
		if resp.Status != proto.StatusOK {
			t.Fatalf("OpNop@5 again = %s", resp.Status)
		}
		resp = srv.Handle(&proto.Message{Op: proto.OpDeleteChunk, Payload: proto.EncodeChunkIDs(testChunk), Epoch: 7})
		if resp.Status == proto.StatusStaleEpoch {
			t.Fatalf("OpDeleteChunk@7 fenced unexpectedly")
		}
		if got := srv.MasterEpoch(); got != 7 {
			t.Fatalf("MasterEpoch = %d, want 7", got)
		}
	})
}

func TestEpochFenceIgnoresDataPathAndUnfencedOps(t *testing.T) {
	clock.Test(t, func() {
		srv, reg := newFencedServer(t)
		defer srv.Close()
		srv.Handle(&proto.Message{Op: proto.OpNop, Epoch: 9})

		// Data-path ops are fenced by view numbers, not master epochs — a
		// stale epoch on them must be ignored, not rejected; epoch 0 too.
		for _, epoch := range []uint64{2, 0} {
			resp := srv.Handle(&proto.Message{Op: proto.OpGetVersion, Payload: proto.EncodeChunkIDs(testChunk), Epoch: epoch})
			if resp.Status == proto.StatusStaleEpoch {
				t.Fatalf("OpGetVersion@%d hit the fence; data path must be unfenced", epoch)
			}
		}
		if n := reg.Counter(MetricStaleEpochRejections).Load(); n != 0 {
			t.Fatalf("stale rejections = %d, want 0", n)
		}
		if got := srv.MasterEpoch(); got != 9 {
			t.Fatalf("MasterEpoch = %d, want 9 (data path must not adopt)", got)
		}

		// An admin op at epoch 0 is not exempt: 0 is the lowest epoch, fenced
		// like any other older than the one witnessed.
		resp := srv.Handle(&proto.Message{Op: proto.OpNop, Epoch: 0})
		if resp.Status != proto.StatusStaleEpoch || resp.Epoch != 9 {
			t.Fatalf("OpNop@0 = %s with fencing epoch %d, want stale-epoch and 9", resp.Status, resp.Epoch)
		}
		if n := reg.Counter(MetricStaleEpochRejections).Load(); n != 1 {
			t.Fatalf("stale rejections = %d, want 1", n)
		}
	})
}
