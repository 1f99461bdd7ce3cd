package scrub

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/clock"
	"ursa/internal/metrics"
	"ursa/internal/util"
)

// fakeTarget is a scriptable Target: per-chunk outcomes and a busy flag.
type fakeTarget struct {
	mu      sync.Mutex
	chunks  []blockstore.ChunkID
	corrupt map[blockstore.ChunkID]bool
	missing map[blockstore.ChunkID]bool
	busy    atomic.Bool
	probes  atomic.Int64
}

func newFakeTarget(ids ...blockstore.ChunkID) *fakeTarget {
	return &fakeTarget{
		chunks:  ids,
		corrupt: make(map[blockstore.ChunkID]bool),
		missing: make(map[blockstore.ChunkID]bool),
	}
}

func (f *fakeTarget) Addr() string { return "fake:0" }

func (f *fakeTarget) ScrubChunks() []blockstore.ChunkID {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]blockstore.ChunkID(nil), f.chunks...)
}

func (f *fakeTarget) ScrubBusy() bool { return f.busy.Load() }

func (f *fakeTarget) ScrubSpan(id blockstore.ChunkID) int64 { return util.ChunkSize }

func (f *fakeTarget) ScrubRange(id blockstore.ChunkID, off int64, n int) error {
	f.probes.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.missing[id] {
		return fmt.Errorf("fake: %v: %w", id, util.ErrNotFound)
	}
	if f.corrupt[id] {
		return fmt.Errorf("fake: %v sector %d: %w", id, off/util.SectorSize, util.ErrCorrupt)
	}
	return nil
}

func waitCounter(t *testing.T, c *metrics.Counter, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter stuck at %d, want >= %d", c.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestScrubPassVerifiesAllChunks(t *testing.T) {
	tgt := newFakeTarget(blockstore.MakeChunkID(1, 0), blockstore.MakeChunkID(1, 1))
	reg := metrics.NewRegistry()
	s := New(clock.Realtime, Config{
		Interval:  time.Millisecond,
		ReadSize:  util.ChunkSize, // one probe per chunk
		IdleGrace: 0,
		Metrics:   reg,
	}, tgt)
	s.Start()
	defer s.Close()

	waitCounter(t, reg.Counter(MetricPasses), 2)
	if got := reg.Counter(MetricChunksVerified).Load(); got < 4 {
		t.Errorf("chunks verified = %d, want >= 4 (2 chunks x 2 passes)", got)
	}
	if got := reg.Counter(MetricBytesVerified).Load(); got < 4*util.ChunkSize {
		t.Errorf("bytes verified = %d", got)
	}
	if got := reg.Counter(MetricCorruptionsFound).Load(); got != 0 {
		t.Errorf("corruptions on a clean target = %d", got)
	}
}

func TestScrubCountsCorruptionAndMovesOn(t *testing.T) {
	bad, good := blockstore.MakeChunkID(2, 0), blockstore.MakeChunkID(2, 1)
	tgt := newFakeTarget(bad, good)
	tgt.corrupt[bad] = true
	reg := metrics.NewRegistry()
	s := New(clock.Realtime, Config{
		Interval:  time.Millisecond,
		ReadSize:  util.ChunkSize,
		IdleGrace: 0,
		Metrics:   reg,
	}, tgt)
	s.Start()
	defer s.Close()

	waitCounter(t, reg.Counter(MetricCorruptionsFound), 1)
	// The clean sibling still gets verified on the same pass.
	waitCounter(t, reg.Counter(MetricChunksVerified), 1)
}

func TestScrubSkipsDeletedChunk(t *testing.T) {
	gone := blockstore.MakeChunkID(3, 0)
	tgt := newFakeTarget(gone)
	tgt.missing[gone] = true
	reg := metrics.NewRegistry()
	s := New(clock.Realtime, Config{
		Interval:  time.Millisecond,
		ReadSize:  util.ChunkSize,
		IdleGrace: 0,
		Metrics:   reg,
	}, tgt)
	s.Start()
	defer s.Close()

	waitCounter(t, reg.Counter(MetricPasses), 2)
	if got := reg.Counter(MetricCorruptionsFound).Load(); got != 0 {
		t.Errorf("deleted chunk counted as corruption: %d", got)
	}
	if got := reg.Counter(MetricReadErrors).Load(); got != 0 {
		t.Errorf("deleted chunk counted as read error: %d", got)
	}
	if got := reg.Counter(MetricChunksVerified).Load(); got != 0 {
		t.Errorf("deleted chunk counted as verified: %d", got)
	}
}

// TestScrubIdleGateHoldsWhileBusy pins the scrubber behind a busy disk:
// no probe may be issued while the target reports busy, and probes resume
// once the disk has been idle for the grace period.
func TestScrubIdleGateHoldsWhileBusy(t *testing.T) {
	tgt := newFakeTarget(blockstore.MakeChunkID(4, 0))
	tgt.busy.Store(true)
	reg := metrics.NewRegistry()
	s := New(clock.Realtime, Config{
		Interval:  time.Millisecond,
		ReadSize:  util.ChunkSize,
		IdleGrace: 2 * time.Millisecond,
		Poll:      time.Millisecond,
		Metrics:   reg,
	}, tgt)
	s.Start()
	defer s.Close()

	time.Sleep(50 * time.Millisecond)
	if got := tgt.probes.Load(); got != 0 {
		t.Fatalf("scrubber probed %d times while disk was busy", got)
	}
	tgt.busy.Store(false)
	waitCounter(t, reg.Counter(MetricChunksVerified), 1)
}

// TestScrubCloseUnblocks closes a scrubber parked in its idle gate; Close
// must not hang.
func TestScrubCloseUnblocks(t *testing.T) {
	tgt := newFakeTarget(blockstore.MakeChunkID(5, 0))
	tgt.busy.Store(true) // gate never opens
	s := New(clock.Realtime, Config{
		IdleGrace: time.Hour,
		Poll:      time.Millisecond,
	}, tgt)
	s.Start()
	time.Sleep(5 * time.Millisecond)
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a gated scrubber")
	}
}
