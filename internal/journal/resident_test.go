package journal

import (
	"bytes"
	"errors"
	"testing"

	"ursa/internal/blockstore"
	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/util"
)

// dropResidency ends the residency of every committed record, as if each
// had been appended past the budget: the tests of the device path — the
// resident image's miss path — call it before they start the replayer.
func dropResidency(s *Set) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropCommittedImagesLocked()
}

// TestResidentImageSurvivesCallerReuse: on SimNet the user's own buffer
// reaches Append by pointer and is the caller's again the moment Append
// returns, so the resident image must be a copy of it, never an alias.
func TestResidentImageSurvivesCallerReuse(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnvStart(t, 16*util.MiB, false, false)
		defer cleanup()
		id := blockstore.MakeChunkID(1, 0)
		e.mustChunk(t, id)
		const n = 64
		want := make([]byte, n*4096)
		util.NewRand(61).Fill(want)
		data := make([]byte, 4096) // one caller buffer, reused for every append
		for i := 0; i < n; i++ {
			copy(data, want[i*4096:])
			if err := e.set.Append(nil, id, int64(i)*4096, data, uint64(i+1)); err != nil {
				t.Fatal(err)
			}
			for k := range data {
				data[k] = 0xEE
			}
		}
		e.set.Start()
		e.set.Drain()
		st := e.set.Stats()
		if st.ReplayedFromMemory != n*4096 || st.ReplayedFromDevice != 0 {
			t.Fatalf("replayed %d bytes from memory and %d from the device, want all %d from memory",
				st.ReplayedFromMemory, st.ReplayedFromDevice, n*4096)
		}
		got := make([]byte, len(want))
		if err := e.sink.ReadAt(id, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("sink holds the caller's scribbles, not the appended bytes")
		}
	})
}

// TestResidencyEndsOnEveryExit: whichever way a record's life ends, its
// share of the resident image goes back to the pool.
func TestResidencyEndsOnEveryExit(t *testing.T) {
	id := blockstore.MakeChunkID(1, 0)
	data := make([]byte, 4096)
	util.NewRand(62).Fill(data)
	appendN := func(t *testing.T, s *Set, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := s.Append(nil, id, int64(i)*4096, data, uint64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	resident := func(t *testing.T, s *Set, want int64) {
		t.Helper()
		if got := s.Stats().ResidentBytes; got != want {
			t.Fatalf("resident bytes = %d, want %d", got, want)
		}
	}

	for _, tc := range []struct {
		name     string
		journals int
		run      func(t *testing.T, e *faultEnv)
	}{
		{"close with pending records", 1, func(t *testing.T, e *faultEnv) {
			appendN(t, e.set, 100) // two slabs' worth, never replayed
			resident(t, e.set, 2*slabBytes)
		}},
		{"drop chunk", 1, func(t *testing.T, e *faultEnv) {
			appendN(t, e.set, 100)
			e.set.DropChunk(id)
			e.set.Start()
			e.set.Drain() // the dropped records leave with their windows
			resident(t, e.set, 0)
		}},
		{"merged away by overwrites", 1, func(t *testing.T, e *faultEnv) {
			for i := 0; i < 100; i++ {
				if err := e.set.Append(nil, id, 0, data, uint64(i+1)); err != nil {
					t.Fatal(err)
				}
			}
			e.set.Start()
			e.set.Drain()
			if st := e.set.Stats(); st.ReplayedFromMemory != 4096 || st.ReplayedFromDevice != 0 {
				t.Fatalf("replay drained %d bytes from memory, %d from the device, want one record from memory",
					st.ReplayedFromMemory, st.ReplayedFromDevice)
			}
			resident(t, e.set, 0)
		}},
		{"flush failure kills the journal", 2, func(t *testing.T, e *faultEnv) {
			appendN(t, e.set, 1)
			e.jdisks[0].FailWrites(nil)
			// The failed record's share is dropped with it; the re-routed
			// append becomes resident on the survivor.
			if err := e.set.Append(nil, id, 4096, data, 2); err != nil {
				t.Fatal(err)
			}
			resident(t, e.set, 2*slabBytes)
			held := 0
			for _, rec := range e.set.journals[0].fifo {
				if rec.failed && (rec.image != nil || rec.slab != nil) {
					t.Fatal("the failed record kept its image")
				}
				if rec.image != nil {
					held++
				}
			}
			if sl := e.set.journals[0].slab; held != 1 || sl == nil || sl.recs != 1 {
				t.Fatalf("dead journal holds %d resident records, slab %+v; want the one committed before it died", held, sl)
			}
			e.set.Start()
			e.set.Drain()
			if st := e.set.Stats(); st.ReplayedFromMemory != 2*4096 || st.ReplayedFromDevice != 0 {
				t.Fatalf("replay drained %d bytes from memory, %d from the device, want both records from memory",
					st.ReplayedFromMemory, st.ReplayedFromDevice)
			}
			resident(t, e.set, 0)
		}},
		{"all journals dead", 2, func(t *testing.T, e *faultEnv) {
			for _, d := range e.jdisks {
				d.FailWrites(nil)
			}
			for i := 0; i < 3; i++ { // each is refused: the bypass is the caller's
				if err := e.set.Append(nil, id, int64(i)*4096, data, uint64(i+1)); !errors.Is(err, util.ErrQuota) {
					t.Fatalf("append %d with every journal dead: %v, want ErrQuota", i, err)
				}
			}
			resident(t, e.set, 0)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock.Test(t, func() {
				leased := bufpool.InUse()
				e, cleanup := newFaultEnv(t, tc.journals, false)
				defer cleanup()
				if err := e.sink.Create(id); err != nil {
					t.Fatal(err)
				}
				tc.run(t, e)
				e.set.Close()
				if st := e.set.Stats(); st.ResidentBytes != 0 {
					t.Fatalf("closed set still holds %d resident bytes", st.ResidentBytes)
				}
				if n := bufpool.InUse(); n != leased {
					t.Fatalf("%d buffers leased after Close, %d before the test", n, leased)
				}
			})
		})
	}
}

// TestResidentBudgetBoundsBacklog holds the replayer off and appends three
// budgets' worth: the slabs never outgrow the budget, the records past it
// are journaled all the same, and the drain delivers every byte — the head
// of the backlog from memory, the rest through the device path.
func TestResidentBudgetBoundsBacklog(t *testing.T) {
	clock.Test(t, func() {
		leased := bufpool.InUse()
		e, cleanup := newEnvStart(t, 64*util.MiB, false, false)
		defer cleanup()
		id := blockstore.MakeChunkID(1, 0)
		e.mustChunk(t, id)
		const recLen = 32 * util.KiB
		const n = 3 * residentBudgetBytes / recLen
		want := make([]byte, n*recLen)
		util.NewRand(63).Fill(want)
		for i := 0; i < n; i++ {
			if err := e.set.Append(nil, id, int64(i)*recLen, want[i*recLen:][:recLen], uint64(i+1)); err != nil {
				t.Fatal(err)
			}
			if got := e.set.Stats().ResidentBytes; got > residentBudgetBytes {
				t.Fatalf("after %d appends: %d resident bytes exceed the budget %d", i+1, got, residentBudgetBytes)
			}
		}
		if st := e.set.Stats(); st.ResidentBytes != residentBudgetBytes || st.Pending != n {
			t.Fatalf("backlog of %d records: %d pending, %d resident bytes, want the whole budget %d in use",
				n, st.Pending, st.ResidentBytes, residentBudgetBytes)
		}
		e.set.Start()
		e.set.Drain()
		st := e.set.Stats()
		if st.ReplayedFromMemory == 0 || st.ReplayedFromDevice == 0 ||
			st.ReplayedFromMemory+st.ReplayedFromDevice != int64(len(want)) {
			t.Fatalf("replayed %d bytes from memory + %d from the device, want both > 0 and %d together",
				st.ReplayedFromMemory, st.ReplayedFromDevice, len(want))
		}
		if st.ResidentPeakBytes > residentBudgetBytes || st.ResidentBytes != 0 {
			t.Fatalf("resident bytes peaked at %d (budget %d), %d left after the drain",
				st.ResidentPeakBytes, residentBudgetBytes, st.ResidentBytes)
		}
		got := make([]byte, len(want))
		if err := e.sink.ReadAt(id, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("sink differs from what was appended")
		}
		if n := bufpool.InUse(); n != leased {
			t.Fatalf("%d buffers leased after the drain, %d before the test", n, leased)
		}
	})
}
