//go:build goexperiment.synctest

package journal

import (
	"bytes"
	"slices"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/clock"
	"ursa/internal/simdisk"
	"ursa/internal/util"
)

// inAndOutOfBubble runs f on the real clock, then again inside a synctest
// bubble, where time is virtual and exact. Whatever the first run leaves in
// package-level state must not stall the second: a channel or timer made
// outside a bubble is not a durable wait inside one. The second run is not on
// the test's goroutine, so f reports with t.Error and returns.
func inAndOutOfBubble(t *testing.T, f func(t *testing.T, bubble bool)) {
	t.Run("real", func(t *testing.T) { f(t, false) })
	t.Run("bubble", func(t *testing.T) { synctest.Run(func() { f(t, true) }) })
}

// gatedDisk holds every write until release is closed.
type gatedDisk struct {
	simdisk.Disk
	release chan struct{}
}

func (g *gatedDisk) WriteAt(p []byte, off int64) error {
	<-g.release
	return g.Disk.WriteAt(p, off)
}

// bubbleDisks are an SSD whose every write costs exactly lat and a free HDD
// under a chunk store with one chunk; the caller closes them.
func bubbleDisks(t *testing.T, lat time.Duration) (ssd, hdd simdisk.Disk, store *blockstore.Store, id blockstore.ChunkID) {
	ssd = simdisk.NewSSD(simdisk.SSDModel{Capacity: 64 * util.MiB, Parallelism: 1, ReadLatency: lat, WriteLatency: lat}, clock.Realtime)
	hdd = simdisk.NewHDD(simdisk.HDDModel{Capacity: util.GiB}, clock.Realtime)
	store = blockstore.New(hdd, 0)
	id = blockstore.MakeChunkID(1, 0)
	if err := store.Create(id); err != nil {
		t.Error(err)
	}
	return ssd, hdd, store, id
}

// TestBubbleGroupCommitAtQD8: eight appends that queue while a flush of one
// is at the device land as one batch — one device write — when it ends: the
// first append is durable at exactly one write's latency, the eight at
// exactly two.
func TestBubbleGroupCommitAtQD8(t *testing.T) {
	inAndOutOfBubble(t, func(t *testing.T, bubble bool) {
		const lat = time.Millisecond
		ssd, hdd, store, id := bubbleDisks(t, lat)
		set := NewSet(clock.Realtime, store, Config{})
		gate := &gatedDisk{Disk: ssd, release: make(chan struct{})}
		set.AddSSDJournal("ssd0", gate, 0, 16*util.MiB)
		defer func() {
			set.Close()
			ssd.Close()
			hdd.Close()
		}()

		var wg sync.WaitGroup
		var mu sync.Mutex
		var released time.Time
		var done []time.Duration
		appendAt := func(i int) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := set.Append(nil, id, int64(i)*4096, make([]byte, 4096), uint64(i+1)); err != nil {
					t.Error(err)
				}
				mu.Lock()
				done = append(done, time.Since(released))
				mu.Unlock()
			}()
		}
		queued := func(n int) {
			for set.JournalStats()[0].Queued < n {
				time.Sleep(time.Microsecond)
			}
		}
		appendAt(0) // leads a flush of one, held at the device
		queued(1)
		for i := 1; i <= 8; i++ {
			appendAt(i)
		}
		queued(9)
		mu.Lock()
		released = time.Now()
		mu.Unlock()
		close(gate.release)
		wg.Wait()

		if st := set.Stats(); st.Flushes != 2 || st.BatchedRecords != 9 {
			t.Errorf("%d flushes of %d records, want 2 of 9: the eight in one batch", st.Flushes, st.BatchedRecords)
		}
		slices.Sort(done)
		want := []time.Duration{lat, 2 * lat, 2 * lat, 2 * lat, 2 * lat, 2 * lat, 2 * lat, 2 * lat, 2 * lat}
		if done[0] < lat || bubble && !slices.Equal(done, want) {
			t.Errorf("appends durable after %v, want exactly %v", done, want)
		}
	})
}

// TestBubbleBypassWriteQueuesBehindReplayRun: a journal-bypass write to a
// chunk whose replay run is at the sink waits for that run on the chunk's
// lock — durably, so the bubble's clock still moves — and lands after it:
// the chunk holds the bypass write's bytes, not the stale record's.
func TestBubbleBypassWriteQueuesBehindReplayRun(t *testing.T) {
	inAndOutOfBubble(t, func(t *testing.T, bubble bool) {
		const lat = time.Millisecond
		ssd, hdd, store, id := bubbleDisks(t, lat)
		sink := &hookSink{Store: store, disk: &depthDisk{Disk: hdd}}
		set := NewSet(clock.Realtime, sink, Config{})
		set.AddSSDJournal("ssd0", ssd, 0, 16*util.MiB)
		defer func() {
			set.Close()
			ssd.Close()
			hdd.Close()
		}()

		stale, fresh := bytes.Repeat([]byte{1}, 4096), bytes.Repeat([]byte{2}, 4096)
		if err := set.Append(nil, id, 0, stale, 1); err != nil {
			t.Error(err)
			return
		}
		direct := make(chan error, 1)
		writes := 0 // the chunk lock orders the hook's two calls
		sink.hook = func(blockstore.ChunkID, int64) {
			if writes++; writes == 1 {
				// The replay run holds the chunk lock across its sink write.
				go func() { direct <- set.WriteDirect(id, fresh, 0) }()
				time.Sleep(lat)
			}
		}
		set.Start()
		if err := <-direct; err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, 4096)
		if err := store.ReadAt(id, got, 0); err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, fresh) || len(sink.writes()) != 2 {
			t.Errorf("%d sink writes and the chunk holds %#x, want the replay then the bypass write (%#x)",
				len(sink.writes()), got[0], fresh[0])
		}
	})
}
