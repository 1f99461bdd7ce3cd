//go:build goexperiment.synctest

package chunkserver

import (
	"fmt"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/clock"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/redundancy"
	"ursa/internal/simdisk"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// exactClock reports whether clock.Test runs a test body in a bubble, where
// model time is exact: in a build with the synctest experiment.
const exactClock = true

// inAndOutOfBubble runs f on the real clock, then again inside a synctest
// bubble, where time is virtual and exact. Whatever the first run leaves in
// package-level state must not stall the second: a channel or timer made
// outside a bubble is not a durable wait inside one. The second run is not on
// the test's goroutine, so f reports with t.Error and returns.
func inAndOutOfBubble(t *testing.T, f func(t *testing.T, bubble bool)) {
	t.Run("real", func(t *testing.T) { f(t, false) })
	t.Run("bubble", func(t *testing.T) { synctest.Run(func() { f(t, true) }) })
}

// TestBubbleVersionSlotWait: a write for slot 1 waits for slot 0 to be
// claimed and wakes at exactly the bump; then two waiters whose deadlines
// nobody beats share the chunk's one timer — the later deadline armed first —
// and each gives up at exactly its own deadline.
func TestBubbleVersionSlotWait(t *testing.T) {
	inAndOutOfBubble(t, func(t *testing.T, bubble bool) {
		cs, err := (&Server{}).newChunkState(CreateChunkReq{})
		if err != nil {
			t.Error(err)
			return
		}
		op := opctx.New(clock.Realtime, 0)
		defer op.Release()
		exactly := func(what string, took, want time.Duration) {
			if took < want || bubble && took != want {
				t.Errorf("%s after %v, want exactly %v", what, took, want)
			}
		}

		const bumpAt = 3 * time.Millisecond
		t0 := time.Now()
		go func() {
			time.Sleep(bumpAt)
			cs.mu.Lock()
			cs.reserved++ // slot 0 claimed
			cs.bumpLocked()
			cs.mu.Unlock()
		}()
		cs.mu.Lock()
		for cs.reserved < 1 {
			if !cs.waitChangeLocked(op, t0.Add(time.Second)) {
				t.Error("the slot wait timed out")
				return
			}
		}
		cs.mu.Unlock()
		exactly("woken by the bump", time.Since(t0), bumpAt)

		var wg sync.WaitGroup
		t0 = time.Now()
		for _, d := range []time.Duration{8 * time.Millisecond, 5 * time.Millisecond} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cs.mu.Lock()
				fired := cs.waitChangeLocked(op, t0.Add(d))
				cs.mu.Unlock()
				if fired {
					t.Errorf("a %v wait reports a change nobody made", d)
				}
				exactly("timed out", time.Since(t0), d)
			}()
			time.Sleep(time.Microsecond) // the later deadline parks first
		}
		wg.Wait()
	})
}

// bubbleSSD is an SSD whose every read and write costs exactly lat.
func bubbleSSD(lat time.Duration) simdisk.Disk {
	return simdisk.NewSSD(simdisk.SSDModel{Capacity: 256 * util.MiB, Parallelism: 32, ReadLatency: lat, WriteLatency: lat}, clock.Realtime)
}

// bubbleServer starts a chunk server at addr on net over disk and creates the
// test chunk on it as req describes. The caller closes the server.
func bubbleServer(net *transport.SimNet, addr string, disk simdisk.Disk, req CreateChunkReq) (*Server, error) {
	srv := New(Config{Addr: addr, Clock: clock.Realtime, Dialer: net.Dialer(addr, transport.NodeConfig{}), ReplTimeout: time.Second},
		blockstore.New(disk, 0), nil)
	l, err := net.Listen(addr, transport.NodeConfig{})
	if err != nil {
		return nil, err
	}
	srv.Serve(l)
	if r := srv.Handle(CreateChunks(ChunkCreate{Chunk: testChunk, CreateChunkReq: req})); r.Status != proto.StatusOK {
		srv.Close()
		return nil, fmt.Errorf("create on %s: %s", addr, r.Status)
	}
	return srv, nil
}

// writeAt sends one apply-only 4 KiB write at version and view and reports
// whether it committed as version+1.
func writeAt(s *Server, version, view uint64, off int64) bool {
	r := s.Handle(&proto.Message{Op: proto.OpReplicate, Chunk: testChunk, Off: off, View: view, Version: version, Payload: make([]byte, 4*util.KiB)})
	return r.Status == proto.StatusOK && r.Version == version+1
}

// TestBubbleWriteQueuesBehindMirrorClone: a write that reaches a replica
// while a mirror clone holds its chunk lock — across every fetch from the
// source and every install — waits on that lock, durably, and is admitted at
// the version the clone adopts: it lands exactly one device write after the
// clone returns.
func TestBubbleWriteQueuesBehindMirrorClone(t *testing.T) {
	inAndOutOfBubble(t, func(t *testing.T, bubble bool) {
		const lat = time.Millisecond
		net := transport.NewSimNet(clock.Realtime, lat)
		srcDisk := &hookDisk{Disk: bubbleSSD(lat)}
		src, err := bubbleServer(net, "src", srcDisk, CreateChunkReq{View: 1})
		if err != nil {
			t.Error(err)
			return
		}
		defer src.Close()
		dst, err := bubbleServer(net, "dst", bubbleSSD(lat), CreateChunkReq{View: 1})
		if err != nil {
			t.Error(err)
			return
		}
		defer dst.Close()
		if !writeAt(src, 0, 1, 0) {
			t.Error("the source write failed")
			return
		}

		landed := make(chan time.Time, 1)
		srcDisk.hook = func() { // the clone's first fetch: dst holds its chunk lock
			go func() {
				if !writeAt(dst, 1, 2, 8*util.KiB) {
					t.Error("the queued write did not commit at the clone's version + 1")
				}
				landed <- time.Now()
			}()
		}
		srcDisk.countdown.Store(1)
		resp := dst.Handle(rebuildMsg(proto.OpFill, 2, 0, FillReq{Source: "src", View: 1}))
		cloned := time.Now()
		if resp.Status != proto.StatusOK || resp.Version != 1 {
			t.Errorf("clone = %s at version %d, want ok at 1", resp.Status, resp.Version)
		}
		if took := (<-landed).Sub(cloned); bubble && took != lat {
			t.Errorf("queued write landed %v after the clone returned, want exactly %v", took, lat)
		}
	})
}

// TestBubbleWriteQueuesBehindSegmentSnapshot: the primary serves a holder's
// segment rebuild as a snapshot read under its chunk lock; a write that
// arrives during the read waits on the lock, durably, and lands exactly one
// read and one write after the read began. The snapshot is at the version
// before it.
func TestBubbleWriteQueuesBehindSegmentSnapshot(t *testing.T) {
	inAndOutOfBubble(t, func(t *testing.T, bubble bool) {
		const lat = time.Millisecond
		spec := redundancy.Spec{Kind: redundancy.KindRS, N: 4, M: 2}
		net := transport.NewSimNet(clock.Realtime, lat)
		pDisk := &hookDisk{Disk: bubbleSSD(lat)}
		p, err := bubbleServer(net, "p", pDisk, CreateChunkReq{View: 1, Redundancy: spec})
		if err != nil {
			t.Error(err)
			return
		}
		defer p.Close()
		h, err := bubbleServer(net, "h", bubbleSSD(lat), CreateChunkReq{View: 1, Redundancy: spec, Holder: true, Seg: 0})
		if err != nil {
			t.Error(err)
			return
		}
		defer h.Close()
		if !writeAt(p, 0, 1, 0) {
			t.Error("the primary write failed")
			return
		}

		var read time.Time
		landed := make(chan time.Time, 1)
		pDisk.hook = func() { // the snapshot's read, under the primary's chunk lock
			read = time.Now()
			go func() {
				if !writeAt(p, 1, 1, 8*util.KiB) {
					t.Error("the queued write did not commit at version 2")
				}
				landed <- time.Now()
			}()
		}
		pDisk.countdown.Store(1)
		resp := h.Handle(rebuildMsg(proto.OpFill, 2, 0, FillReq{Source: "p", View: 1}))
		if resp.Status != proto.StatusOK || resp.Version != 1 {
			t.Errorf("rebuild = %s at version %d, want ok at the snapshot's 1", resp.Status, resp.Version)
		}
		if took := (<-landed).Sub(read); took < 2*lat || bubble && took != 2*lat {
			t.Errorf("queued write landed %v after the snapshot read began, want exactly %v", took, 2*lat)
		}
	})
}
