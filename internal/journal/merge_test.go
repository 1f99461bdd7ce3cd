package journal

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"ursa/internal/blockstore"
	"ursa/internal/clock"
	"ursa/internal/jindex"
	"ursa/internal/util"
)

// TestIndexMergesUnderSet drives one chunk's index past autoMergeAt with the
// replayer held, so the tree is merged into the array on a flush's insert:
// eight appenders each overwrite 1–3 sector records across their own region
// of the chunk, laps that leave thousands of fragments in the tree, and one
// of them writes a bypass WriteDirect among its appends. Set.Read must equal
// a byte model of every write before the replayer runs, and again after
// Drain, when the sink holds it all and the index maps nothing.
func TestIndexMergesUnderSet(t *testing.T) {
	clock.Test(t, func() {
		env, closeEnv := newEnvStart(t, 32*util.MiB, false, false)
		defer closeEnv()
		id := blockstore.MakeChunkID(1, 0)
		if err := env.sink.Create(id); err != nil {
			t.Fatal(err)
		}

		const (
			workers             = 8
			records             = 720 // per worker: 720 of 1–3 sectors, 3.5 laps of the region
			region              = 1024 * util.SectorSize
			bypassAt, bypassLen = 300, 64 * util.SectorSize
		)
		model := make([]byte, workers*region)
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for g := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := util.NewRand(uint64(g + 1))
				base := int64(g) * region
				for k := range records {
					if g == 0 && k == bypassAt {
						data := make([]byte, bypassLen)
						r.Fill(data)
						if err := env.set.WriteDirect(id, data, base+region/2); err != nil {
							errs <- fmt.Errorf("bypass write: %w", err)
							return
						}
						copy(model[base+region/2:], data)
					}
					off := base + int64(k*5%1024)*util.SectorSize
					data := make([]byte, min((1+k%3)*util.SectorSize, int(base+region-off)))
					r.Fill(data)
					if err := env.set.Append(nil, id, off, data, uint64(k+1)); err != nil {
						errs <- fmt.Errorf("worker %d append %d: %w", g, k, err)
						return
					}
					copy(model[off:], data)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		env.set.mu.Lock()
		st := env.set.indexes[id].Stats()
		env.set.mu.Unlock()
		if st.ArrLen == 0 {
			t.Fatalf("the tree was never merged: %+v", st)
		}
		t.Logf("index before replay: %+v", st)

		check := func(phase string) {
			t.Helper()
			got := make([]byte, len(model))
			if err := env.set.Read(id, got, 0); err != nil {
				t.Fatalf("%s: read: %v", phase, err)
			}
			if i := firstDiff(got, model); i >= 0 {
				t.Fatalf("%s: read differs from the model at byte %d (sector %d)", phase, i, i/util.SectorSize)
			}
		}
		check("before replay")
		env.set.Start()
		env.set.Drain()
		check("after drain")
		sink := make([]byte, len(model))
		if err := env.sink.ReadAt(id, sink, 0); err != nil {
			t.Fatal(err)
		}
		if i := firstDiff(sink, model); i >= 0 {
			t.Fatalf("sink differs from the model at byte %d", i)
		}
		env.set.mu.Lock()
		left := env.set.indexes[id].Query(0, jindex.MaxOff)
		env.set.mu.Unlock()
		if len(left) != 0 {
			t.Fatalf("index maps %d extents after drain, first %v", len(left), left[0])
		}
	})
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return len(a)
}
