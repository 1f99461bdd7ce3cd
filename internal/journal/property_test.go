package journal

import (
	"bytes"
	"testing"

	"ursa/internal/blockstore"
	"ursa/internal/clock"
	"ursa/internal/simdisk"
	"ursa/internal/util"
)

// TestJournalModelEquivalence is the journal's model-based property test:
// a random interleaving of appends, bypass writes, drains and reads must
// always agree byte-for-byte with a flat shadow buffer.
func TestJournalModelEquivalence(t *testing.T) {
	clock.Test(t, func() {
		clk := clock.Realtime
		hm := fastHDD(256 * util.MiB)
		hdd := simdisk.NewHDD(hm, clk)
		defer hdd.Close()
		sm := fastSSD(64 * util.MiB)
		ssd := simdisk.NewSSD(sm, clk)
		defer ssd.Close()

		sink := blockstore.New(hdd, 0)
		set := NewSet(clk, sink, Config{})
		set.AddSSDJournal("j", ssd, 0, 4*util.MiB)
		set.Start()
		defer set.Close()

		id := blockstore.MakeChunkID(1, 0)
		if err := sink.Create(id); err != nil {
			t.Fatal(err)
		}

		const region = 512 * util.KiB
		model := make([]byte, region)
		r := util.NewRand(0xfeed)
		version := uint64(0)

		for op := 0; op < 400; op++ {
			off := util.AlignDown(r.Int63n(region-64*util.KiB), util.SectorSize)
			n := (r.Intn(32) + 1) * util.SectorSize
			switch r.Intn(5) {
			case 0, 1: // journal append
				data := make([]byte, n)
				r.Fill(data)
				version++
				if err := set.Append(nil, id, off, data, version); err != nil {
					t.Fatalf("op %d append: %v", op, err)
				}
				copy(model[off:], data)
			case 2: // bypass write
				data := make([]byte, n)
				r.Fill(data)
				if err := set.WriteDirect(id, data, off); err != nil {
					t.Fatalf("op %d direct: %v", op, err)
				}
				copy(model[off:], data)
			case 3: // drain everything
				set.Drain()
			default: // read and compare
				got := make([]byte, n)
				if err := set.Read(id, got, off); err != nil {
					t.Fatalf("op %d read: %v", op, err)
				}
				if !bytes.Equal(got, model[off:off+int64(n)]) {
					t.Fatalf("op %d: read diverged from model at %d", op, off)
				}
			}
		}
		// Final: drain and verify the entire region through the sink alone.
		set.Drain()
		got := make([]byte, region)
		if err := sink.ReadAt(id, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, model) {
			for i := range got {
				if got[i] != model[i] {
					t.Fatalf("sink diverged from model at byte %d", i)
				}
			}
		}
	})
}

// TestJournalSpaceAccounting checks the circular buffer invariant: used
// space never exceeds the region and frees fully after a drain.
func TestJournalSpaceAccounting(t *testing.T) {
	clock.Test(t, func() {
		clk := clock.Realtime
		sm := fastSSD(64 * util.MiB)
		ssd := simdisk.NewSSD(sm, clk)
		defer ssd.Close()
		hm := fastHDD(256 * util.MiB)
		hdd := simdisk.NewHDD(hm, clk)
		defer hdd.Close()

		sink := blockstore.New(hdd, 0)
		set := NewSet(clk, sink, Config{})
		j := set.AddSSDJournal("j", ssd, 0, 64*util.KiB)
		set.Start()
		defer set.Close()

		id := blockstore.MakeChunkID(1, 0)
		if err := sink.Create(id); err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 4*util.KiB)
		for i := 0; i < 100; i++ {
			err := set.Append(nil, id, int64(i%16)*4096, data, uint64(i+1))
			if err != nil {
				// Quota pressure: drain and retry once.
				set.Drain()
				if err = set.Append(nil, id, int64(i%16)*4096, data, uint64(i+1)); err != nil {
					t.Fatalf("append %d after drain: %v", i, err)
				}
			}
			// Stats reads under the set lock: the replayer moves the tail.
			if used := set.JournalStats()[0].Used; used < 0 || used > j.Size() {
				t.Fatalf("used bytes out of range: %d of %d", used, j.Size())
			}
		}
		set.Drain()
		if used := set.JournalStats()[0].Used; used != 0 {
			t.Errorf("used bytes after full drain = %d", used)
		}
	})
}
