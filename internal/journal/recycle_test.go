package journal

import (
	"bytes"
	"reflect"
	"testing"

	"ursa/internal/blockstore"
	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/reclog"
	"ursa/internal/simdisk"
	"ursa/internal/util"
)

// TestRecycledRecordsAreUnreachable runs the replayer's steps by hand, one
// small window at a time over a journal that wraps, with appends between
// the windows reusing what the windows before released. After every window
// no record on the free list may be reachable from a fifo — the slots past
// its length included, which a stale window slice could still see — or from
// the replayer's window scratch; and every record the fifo still holds must
// be off the list, or an append would overwrite a record yet to be replayed.
func TestRecycledRecordsAreUnreachable(t *testing.T) {
	clock.Test(t, func() {
		leased := bufpool.InUse()
		clk := clock.Realtime
		hm := fastHDD(512 * util.MiB)
		hdd := simdisk.NewHDD(hm, clk)
		sm := fastSSD(64 * util.MiB)
		ssd := simdisk.NewSSD(sm, clk)
		sink := blockstore.New(hdd, 0)
		// Not started until the end: this test is the replayer.
		set := NewSet(clk, sink, Config{})
		j := set.AddSSDJournal("ssd0", ssd, 0, 40*reclog.RecordBytes(4096)) // wraps every 40 records
		defer func() {
			set.Close()
			ssd.Close()
			hdd.Close()
		}()
		id := blockstore.MakeChunkID(1, 0)
		if err := sink.Create(id); err != nil {
			t.Fatal(err)
		}

		const blocks = 64
		want := make([]byte, blocks*4096)
		r := util.NewRand(7)
		version := uint64(0)
		put := func(n int) {
			for i := 0; i < n; i++ {
				b := int(r.Int63n(blocks))
				data := want[b*4096:][:4096]
				r.Fill(data)
				version++
				if err := set.Append(nil, id, int64(b)*4096, data, version); err != nil {
					t.Fatalf("append %d: %v", version, err)
				}
			}
		}
		check := func(window []*pendingRecord) {
			t.Helper()
			free := make(map[*pendingRecord]bool)
			for _, rec := range set.freeRecs {
				if !reflect.DeepEqual(*rec, pendingRecord{}) {
					t.Fatalf("free record not wiped: %+v", *rec)
				}
				if free[rec] {
					t.Fatal("a record is on the free list twice")
				}
				free[rec] = true
			}
			for _, jj := range set.journals {
				for i, rec := range jj.fifo[:cap(jj.fifo)] {
					if rec != nil && free[rec] {
						t.Fatalf("fifo slot %d (length %d) still holds a recycled record", i, len(jj.fifo))
					}
					if i >= len(jj.fifo) && rec != nil {
						t.Fatalf("fifo slot %d past its length %d holds a record", i, len(jj.fifo))
					}
				}
			}
			for i, rec := range window { // the fifo's storage, or what was before it grew
				if rec != nil && free[rec] {
					t.Fatalf("window slot %d still holds a recycled record", i)
				}
			}
			for _, lr := range set.rp.live[:cap(set.rp.live)] {
				if lr.rec != nil {
					t.Fatal("the replayer's window scratch still holds a record")
				}
			}
			// Slabs are recycled like records: one on the free list holds no lease
			// and no record, and every record the fifos hold is still resident
			// (this journal never outgrows the budget) in a slab that counts it.
			for _, sl := range set.freeSlabs {
				if !reflect.DeepEqual(*sl, slab{}) {
					t.Fatalf("free slab not wiped: %+v", *sl)
				}
			}
			held := make(map[*slab]int)
			for _, jj := range set.journals {
				for _, rec := range jj.fifo {
					if rec.image == nil || rec.slab == nil || rec.slab.buf == nil {
						t.Fatalf("pending record %v@%d lost its image", rec.chunk, rec.off)
					}
					held[rec.slab]++
				}
			}
			for sl, n := range held {
				if sl.recs != n {
					t.Fatalf("slab counts %d records, the fifos hold %d of its", sl.recs, n)
				}
			}
			if want := int64(len(held)) * slabBytes; set.residentBytes != want {
				t.Fatalf("resident bytes = %d with %d slabs held, want %d", set.residentBytes, len(held), want)
			}
		}

		put(12)
		recycled := 0
		for pass := 0; pass < 60; pass++ {
			set.mu.Lock()
			set.force++ // replay whatever the (idle) sink's gate says
			jj := set.nextJournalLocked()
			if jj == nil {
				set.force--
				set.mu.Unlock()
				t.Fatalf("pass %d: nothing to replay with %d pending", pass, set.pending)
			}
			// A small window: its first five entries, a prefix of the fifo as
			// every window is, with the rest of the backlog left behind it.
			window := set.windowLocked(jj)
			window = window[:min(len(window), 5):min(len(window), 5)]
			set.planLocked(window)
			set.mu.Unlock()
			had := len(set.freeRecs)
			if !set.replayWindow(jj, window) {
				t.Fatalf("pass %d: window parked", pass)
			}
			set.mu.Lock()
			set.force--
			set.mu.Unlock()
			recycled += len(set.freeRecs) - had
			check(window)

			before := len(set.freeRecs)
			put(5)
			if took := before - len(set.freeRecs); took != min(before, 5) {
				t.Fatalf("pass %d: 5 appends took %d of %d free records", pass, took, before)
			}
			check(nil)
		}
		if recycled == 0 {
			t.Fatal("no record was ever recycled")
		}
		if j.log.Head() < 3*j.log.Size() {
			t.Fatalf("journal wrapped %d times, want at least 3", j.log.Head()/j.log.Size())
		}

		set.Start()
		set.Drain()
		got := make([]byte, len(want))
		if err := set.Read(id, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("content after recycling appends and replays differs from what was written")
		}
		if st := set.Stats(); st.ResidentBytes != 0 || st.ReplayedFromDevice != 0 {
			t.Fatalf("drained set: %d resident bytes, %d bytes replayed from the device, want 0 and 0",
				st.ResidentBytes, st.ReplayedFromDevice)
		}
		if n := bufpool.InUse(); n != leased {
			t.Fatalf("%d buffers leased after the drain, %d before the test", n, leased)
		}
	})
}
