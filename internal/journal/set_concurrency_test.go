package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/clock"
	"ursa/internal/metrics"
	"ursa/internal/simdisk"
	"ursa/internal/util"
)

// TestConcurrentAppendDrainDrop hammers the group-commit path: N goroutines
// append to a shared chunk (disjoint per-goroutine slots) and to private
// chunks while Drain and DropChunk race with the replayer. Afterwards no
// record may be lost and no slot may hold stale (non-final) data. Run under
// -race, this also exercises the leader/follower handoff and the windowed
// replay locking.
func TestConcurrentAppendDrainDrop(t *testing.T) {
	clock.Test(t, func() {
		clk := clock.Realtime

		hm := fastHDD(512 * util.MiB)
		hdd := simdisk.NewHDD(hm, clk)
		sm := fastSSD(256 * util.MiB)
		ssdA := simdisk.NewSSD(sm, clk)
		ssdB := simdisk.NewSSD(sm, clk)
		sink := blockstore.New(hdd, 0)

		reg := metrics.NewRegistry()
		set := NewSet(clk, sink, Config{Metrics: reg})
		// Two SSD journals so least-queue-depth striping is exercised.
		set.AddSSDJournal("ssdA", ssdA, 0, 32*util.MiB)
		set.AddSSDJournal("ssdB", ssdB, 0, 32*util.MiB)
		set.Start()
		defer func() {
			set.Close()
			ssdA.Close()
			ssdB.Close()
			hdd.Close()
		}()

		const (
			workers = 6
			iters   = 40
			slot    = 4 * util.KiB
		)
		shared := blockstore.MakeChunkID(1, 0)
		if err := sink.Create(shared); err != nil {
			t.Fatal(err)
		}
		private := make([]blockstore.ChunkID, workers)
		for g := range private {
			private[g] = blockstore.MakeChunkID(2, uint32(g))
			if err := sink.Create(private[g]); err != nil {
				t.Fatal(err)
			}
		}

		// fill writes a recognizable, iteration-stamped pattern.
		fill := func(buf []byte, id blockstore.ChunkID, g, iter int) {
			for i := 0; i < len(buf); i += 16 {
				binary.LittleEndian.PutUint64(buf[i:], uint64(id))
				binary.LittleEndian.PutUint32(buf[i+8:], uint32(g))
				binary.LittleEndian.PutUint32(buf[i+12:], uint32(iter))
			}
		}

		var wg sync.WaitGroup
		errs := make(chan error, workers+2)

		// Appenders: each goroutine owns one slot of the shared chunk and two
		// slots of its private chunk, overwriting them every iteration —
		// per-slot appends stay serialized (single writer), while slots of the
		// same chunk race through group commit together.
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				buf := make([]byte, slot)
				for i := 0; i < iters; i++ {
					fill(buf, shared, g, i)
					if err := set.Append(nil, shared, int64(g)*slot, buf, uint64(i+1)); err != nil {
						errs <- fmt.Errorf("worker %d shared append %d: %w", g, i, err)
						return
					}
					for s := 0; s < 2; s++ {
						fill(buf, private[g], s, i)
						if err := set.Append(nil, private[g], int64(s)*slot, buf, uint64(i+1)); err != nil {
							errs <- fmt.Errorf("worker %d private append %d.%d: %w", g, i, s, err)
							return
						}
					}
				}
			}(g)
		}

		// Drainer: force full replays concurrently with the appends.
		stop := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				set.Drain()
				time.Sleep(time.Millisecond)
			}
		}()

		// Dropper: churn a sacrificial chunk through create→append→drop→delete
		// so replay repeatedly meets records whose index is gone.
		wg.Add(1)
		go func() {
			defer wg.Done()
			doomed := blockstore.MakeChunkID(3, 0)
			buf := make([]byte, slot)
			for i := 0; i < iters; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := sink.Create(doomed); err != nil {
					errs <- fmt.Errorf("dropper create %d: %w", i, err)
					return
				}
				fill(buf, doomed, 0, i)
				if err := set.Append(nil, doomed, 0, buf, uint64(i+1)); err != nil {
					errs <- fmt.Errorf("dropper append %d: %w", i, err)
					return
				}
				set.DropChunk(doomed)
				if err := sink.Delete(doomed); err != nil {
					errs <- fmt.Errorf("dropper delete %d: %w", i, err)
					return
				}
			}
		}()

		// Wait for appenders, then release the drainer/dropper.
		done := make(chan struct{})
		go func() {
			wg.Wait()
			close(done)
		}()
		// Appenders finish first (workers goroutines); give everything a bound.
		deadline := time.After(2 * time.Minute)
		waitDone := func() {
			select {
			case <-done:
			case <-deadline:
				t.Fatal("timeout: appenders/drainer/dropper did not finish")
			}
		}
		// Close stop once appenders are done: poll pending via a side channel.
		go func() {
			for {
				time.Sleep(5 * time.Millisecond)
				if set.Stats().BatchedRecords >= int64(workers*iters*3) {
					close(stop)
					return
				}
			}
		}()
		waitDone()
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}

		set.Drain()
		if p := set.Pending(); p != 0 {
			t.Fatalf("pending after drain = %d", p)
		}

		// No record lost, none replayed stale: every surviving slot must hold
		// its final iteration, via the journal-aware read AND on the bare sink.
		want := make([]byte, slot)
		got := make([]byte, slot)
		check := func(id blockstore.ChunkID, g int, off int64) {
			t.Helper()
			fill(want, id, g, iters-1)
			if err := set.Read(id, got, off); err != nil {
				t.Fatalf("read %v@%d: %v", id, off, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("chunk %v slot@%d: stale or lost data (journal read)", id, off)
			}
			if err := sink.ReadAt(id, got, off); err != nil {
				t.Fatalf("sink read %v@%d: %v", id, off, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("chunk %v slot@%d: stale or lost data on sink", id, off)
			}
		}
		for g := 0; g < workers; g++ {
			check(shared, g, int64(g)*slot)
			check(private[g], 0, 0)
			check(private[g], 1, slot)
		}

		// The batch-size histogram must exist; under concurrency it should have
		// seen every record (mean >= 1 by construction).
		st := set.Stats()
		if st.BatchedRecords < int64(workers*iters*3) {
			t.Errorf("batched records = %d, want >= %d", st.BatchedRecords, workers*iters*3)
		}
		if vh := reg.ValueHist("journal-batch-records"); vh == nil || vh.Count() == 0 {
			t.Error("journal-batch-records histogram empty")
		}
	})
}
