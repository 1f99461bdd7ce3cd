package chunkserver

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/linearize"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/simdisk"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// TestReadRejectsBadRange is the regression test for the read-path range
// check: malformed lengths/offsets must be rejected up front, before any
// buffer is sized from them, exactly like the write path.
func TestReadRejectsBadRange(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		e.createChunk(t)
		cases := []struct {
			name string
			off  int64
			n    uint32
		}{
			{"zero-length", 0, 0},
			{"unaligned-length", 0, util.SectorSize + 1},
			{"negative-offset", -util.SectorSize, util.SectorSize},
			{"unaligned-offset", 1, util.SectorSize},
			{"past-chunk-end", util.ChunkSize - util.SectorSize, 2 * util.SectorSize},
			{"huge-length", 0, uint32(util.ChunkSize) * 4},
		}
		for _, tc := range cases {
			resp := e.primary.Handle(&proto.Message{
				Op: proto.OpRead, Chunk: testChunk, Off: tc.off, Length: tc.n, View: 1,
			})
			if resp.Status != proto.StatusError {
				t.Errorf("%s: status = %s, want error", tc.name, resp.Status)
			}
		}
		// A well-formed read still works.
		resp := e.primary.Handle(&proto.Message{
			Op: proto.OpRead, Chunk: testChunk, Off: 0, Length: util.SectorSize, View: 1,
		})
		if resp.Status != proto.StatusOK {
			t.Fatalf("valid read: %s", resp.Status)
		}
		bufpool.Put(resp.Payload)
	})
}

// retryWrite issues a write with a fixed version until the server commits
// it, mirroring the client's retry loop (same version, same payload). A
// StatusStaleVersion on a retry means an earlier attempt landed and the
// chunk has since moved past it — the write is committed.
func retryWrite(t *testing.T, s *Server, version uint64, off int64, data []byte) bool {
	t.Helper()
	for attempt := 0; attempt < 100; attempt++ {
		resp := write(s, version, off, data)
		switch resp.Status {
		case proto.StatusOK:
			return true
		case proto.StatusStaleVersion:
			if attempt > 0 {
				return true
			}
			t.Errorf("version %d stale on first attempt", version)
			return false
		}
	}
	return false
}

// TestOverlappingConcurrentWritesApplyInVersionOrder races K fully
// overlapping writes to one extent, issued concurrently with consecutive
// versions. The pipeline must serialize their applies through the extent
// dependency table: afterwards every replica is at version K and the data
// is the highest version's payload on all three.
func TestOverlappingConcurrentWritesApplyInVersionOrder(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		e.createChunk(t)
		const K = 16
		payload := func(v int) []byte {
			return bytes.Repeat([]byte{byte(0x10 + v)}, 4*util.KiB)
		}
		var wg sync.WaitGroup
		for v := 0; v < K; v++ {
			wg.Add(1)
			go func(v int) {
				defer wg.Done()
				if !retryWrite(t, e.primary, uint64(v), 0, payload(v)) {
					t.Errorf("version %d never committed", v)
				}
			}(v)
		}
		wg.Wait()

		for _, s := range []*Server{e.primary, e.backups[0], e.backups[1]} {
			v := s.Handle(&proto.Message{Op: proto.OpGetVersion, Payload: proto.EncodeChunkIDs(testChunk)})
			if v.Version != K {
				t.Errorf("%s version = %d, want %d", s.Addr(), v.Version, K)
			}
			r := s.Handle(&proto.Message{
				Op: proto.OpRead, Chunk: testChunk, Off: 0, Length: 4 * util.KiB,
				View: 1, Version: K,
			})
			if r.Status != proto.StatusOK {
				t.Fatalf("%s read: %s", s.Addr(), r.Status)
			}
			if !bytes.Equal(r.Payload, payload(K-1)) {
				t.Errorf("%s data = %#x..., want version %d's payload",
					s.Addr(), r.Payload[0], K-1)
			}
			bufpool.Put(r.Payload)
		}
	})
}

// TestConcurrentSameChunkLinearizable races same-chunk writers, readers,
// and the replica fan-out under the race detector, checking every read
// against the linearizable envelope. Per-sector operations are serialized
// by slot locks (the checker is a single-client model); cross-sector
// operations run fully concurrently, which is exactly the regime the
// pipelined write path parallelizes.
func TestConcurrentSameChunkLinearizable(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		e.createChunk(t)

		const (
			slots   = 8
			workers = 8
			ops     = 40
		)
		checker := linearize.New()
		var checkMu sync.Mutex // guards checker; always acquired inside a slot lock
		var verMu sync.Mutex   // guards the version allocator and committed watermark
		var next, committed uint64
		slotMu := make([]clock.Mutex, slots) // held across writes: a bubble waits on it durably
		for i := range slotMu {
			slotMu[i] = clock.NewMutex()
		}
		offOf := func(slot int) int64 { return int64(slot) * util.SectorSize }
		servers := []*Server{e.primary, e.backups[0], e.backups[1]}

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := util.NewRand(uint64(w) + 99)
				for i := 0; i < ops; i++ {
					slot := int(r.Int63n(slots))
					if r.Float64() < 0.5 {
						// Write: allocate the next version under the slot lock so
						// the per-sector history stays sequential for the checker.
						data := make([]byte, util.SectorSize)
						r.Fill(data)
						slotMu[slot].Lock()
						verMu.Lock()
						v := next
						next++
						verMu.Unlock()
						if retryWrite(t, e.primary, v, offOf(slot), data) {
							checkMu.Lock()
							checker.WriteCommitted(offOf(slot), data)
							checkMu.Unlock()
							verMu.Lock()
							if v+1 > committed {
								committed = v + 1
							}
							verMu.Unlock()
						} else {
							checkMu.Lock()
							checker.WriteUnresolved(offOf(slot), data)
							checkMu.Unlock()
						}
						slotMu[slot].Unlock()
					} else {
						// Read from a random replica at the committed watermark; a
						// lagging replica answers Behind (availability hiccup, the
						// client would rotate) and is skipped.
						slotMu[slot].Lock()
						verMu.Lock()
						cv := committed
						verMu.Unlock()
						srv := servers[r.Int63n(int64(len(servers)))]
						resp := srv.Handle(&proto.Message{
							Op: proto.OpRead, Chunk: testChunk, Off: offOf(slot),
							Length: util.SectorSize, View: 1, Version: cv,
						})
						if resp.Status == proto.StatusOK {
							checkMu.Lock()
							err := checker.CheckRead(offOf(slot), resp.Payload)
							checkMu.Unlock()
							if err != nil {
								t.Errorf("worker %d op %d (%s): %v", w, i, srv.Addr(), err)
							}
						}
						bufpool.Put(resp.Payload)
						slotMu[slot].Unlock()
					}
				}
			}(w)
		}
		wg.Wait()

		// Final sweep: every slot on every replica that is fully caught up.
		verMu.Lock()
		cv := committed
		verMu.Unlock()
		for slot := 0; slot < slots; slot++ {
			for _, srv := range servers {
				resp := srv.Handle(&proto.Message{
					Op: proto.OpRead, Chunk: testChunk, Off: offOf(slot),
					Length: util.SectorSize, View: 1, Version: cv,
				})
				if resp.Status != proto.StatusOK {
					continue
				}
				if err := checker.CheckRead(offOf(slot), resp.Payload); err != nil {
					t.Errorf("final sweep slot %d (%s): %v", slot, srv.Addr(), err)
				}
				bufpool.Put(resp.Payload)
			}
		}
	})
}

// peakDisk records how many WriteAt calls were ever in flight on a disk at
// once.
type peakDisk struct {
	simdisk.Disk
	now, peak atomic.Int32
}

func (d *peakDisk) WriteAt(p []byte, off int64) error {
	n := d.now.Add(1)
	defer d.now.Add(-1)
	for m := d.peak.Load(); n > m && !d.peak.CompareAndSwap(m, n); m = d.peak.Load() {
	}
	return d.Disk.WriteAt(p, off)
}

// TestDisjointWritesPipelineConcurrently is the tentpole's direct guard: on
// a device with real service time, disjoint same-chunk writes must overlap
// at the SSD instead of queueing on the chunk lock. Eight 2ms writes would
// take 16ms serialized; pipelined across the SSD's 32-way parallelism they
// finish in a few service times. That bound is checked where model time is
// exact (in a bubble); on the real clock, where elapsed time measures the
// host's load as well, the overlap is counted at the device instead: at
// least half the writes in flight at once.
func TestDisjointWritesPipelineConcurrently(t *testing.T) {
	clock.Test(t, func() {
		clk := clock.Realtime
		net := transport.NewSimNet(clk, time.Microsecond)
		slow := simdisk.SSDModel{
			Capacity: 2 * util.GiB, Parallelism: 32,
			ReadLatency: 500 * time.Microsecond, WriteLatency: 2 * time.Millisecond,
			ReadBandwidth: 20e9, WriteBandwidth: 12e9,
		}
		disk := &peakDisk{Disk: simdisk.NewSSD(slow, clk)}
		store := blockstore.New(disk, 0)
		srv := New(Config{
			Addr: "p", Clock: clk,
			Dialer:      net.Dialer("p", transport.NodeConfig{}),
			ReplTimeout: time.Second,
		}, store, nil)
		l, err := net.Listen("p", transport.NodeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		srv.Serve(l)
		defer srv.Close()
		resp := srv.Handle(CreateChunks(ChunkCreate{Chunk: testChunk, CreateChunkReq: CreateChunkReq{View: 1}}))
		if resp.Status != proto.StatusOK {
			t.Fatal(resp.Status)
		}

		const qd = 8
		start := clk.Now()
		var wg sync.WaitGroup
		for v := 0; v < qd; v++ {
			wg.Add(1)
			go func(v int) {
				defer wg.Done()
				data := bytes.Repeat([]byte{byte(v + 1)}, 4*util.KiB)
				if !retryWrite(t, srv, uint64(v), int64(v)*64*util.KiB, data) {
					t.Errorf("write %d never committed", v)
				}
			}(v)
		}
		wg.Wait()
		elapsed := clk.Now().Sub(start)
		if serial := qd * 2 * time.Millisecond; exactClock && elapsed >= serial*3/4 {
			t.Errorf("disjoint writes took %v, want well under the serial %v", elapsed, serial)
		}
		if peak := disk.peak.Load(); peak < qd/2 {
			t.Errorf("at most %d of %d disjoint writes were at the device at once, want %d", peak, qd, qd/2)
		}
		if v := srv.Handle(&proto.Message{Op: proto.OpGetVersion, Payload: proto.EncodeChunkIDs(testChunk)}); v.Version != qd {
			t.Errorf("version = %d, want %d", v.Version, qd)
		}
	})
}

// TestDegradedCommitRepliesPastSilentBackup is the commit rule's early exit
// on a five-replica mirror: one backup is down (its shipment fails at once),
// two ack, and the fourth sits behind a stalled device. The outcome is
// decided at the second ack, so the primary must reply then — not after the
// silent backup's stall, let alone its window — ending the fan-out's flight
// with that shipment still out. The handler's request frame, op and flight
// are recycled at the reply and reused by the writes that follow at once,
// while the stragglers' acks are still to come: those must be dropped by the
// transport without reaching any of them (the race detector watches), and the
// stragglers' applies must still happen.
func TestDegradedCommitRepliesPastSilentBackup(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newRebuildEnv(t)
		defer cleanup()
		const window = 5 * time.Second
		p := e.start("p", false, nil, window)
		stalled := simdisk.NewFaultInjector(simdisk.NewSSD(fastSSD(), clock.Realtime), clock.Realtime)
		addrs := []string{"b1", "b2", "b3", "b4"}
		var backups []*Server
		for _, addr := range addrs {
			var disk simdisk.Disk
			if addr == "b4" {
				disk = stalled
			}
			backups = append(backups, e.start(addr, false, disk, window))
		}
		mustCreate(t, p, CreateChunkReq{View: 1, Backups: addrs})
		for _, b := range backups {
			mustCreate(t, b, CreateChunkReq{View: 1})
		}
		e.net.Crash("b1")
		const stall = 500 * time.Millisecond
		stalled.Stall(stall)
		ops, leases := opctx.InUse(), e.leases()

		// Through the transport, not Handle: its server recycles the request
		// frame when the handler returns.
		client := transport.NewPeers(e.net.Dialer("client", transport.NodeConfig{}), clock.Realtime)
		defer client.CloseAll()
		const writes = 4
		for v := uint64(0); v < writes; v++ {
			t0 := time.Now()
			op := opctx.New(clock.Realtime, window)
			resp, err := client.Do(op, "p", &proto.Message{
				Op: proto.OpWrite, Chunk: testChunk, Off: int64(v) * 64 * util.KiB,
				View: 1, Version: v, Payload: bytes.Repeat([]byte{byte(0x70 + v)}, 4*util.KiB),
			}, 0)
			op.Release()
			took := time.Since(t0)
			if err != nil || resp.Status != proto.StatusOK || resp.Version != v+1 {
				t.Fatalf("write %d: %+v, %v", v, resp, err)
			}
			if took >= stall*3/4 {
				t.Errorf("write %d replied after %v: it waited for the silent backup (stalled %v)", v, took, stall)
			}
			proto.Recycle(resp)
		}
		if got := p.degradedCommits.Load(); got != writes {
			t.Errorf("degraded commits = %d, want %d", got, writes)
		}
		if ver, _ := versionView(t, backups[3]); ver == writes {
			t.Error("the stalled backup had applied everything by the last reply: nothing was silent")
		}
		waitFor(t, "the stragglers' applies", func() bool {
			ver, _ := versionView(t, backups[3])
			return ver == writes
		})
		// At most the starting values: an earlier test's failure reporter may
		// still have held an op when they were taken.
		waitFor(t, "ops and buffer leases to return", func() bool {
			return opctx.InUse() <= ops && e.leases() <= leases
		})
	})
}
