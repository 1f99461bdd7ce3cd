package journal

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"ursa/internal/blockstore"
	"ursa/internal/clock"
	"ursa/internal/simdisk"
	"ursa/internal/util"
)

// testEnv wires an SSD journal set in front of an HDD chunk store.
type testEnv struct {
	set  *Set
	sink *blockstore.Store
	ssd  simdisk.Disk
	hdd  simdisk.Disk
}

// fastSSD and fastHDD are the default device models at capacity bytes with
// every latency a thousandth and every rate a thousand times: on the real
// clock an op costs the host's sleep floor, and the models' proportions hold.
func fastSSD(capacity int64) simdisk.SSDModel {
	m := simdisk.DefaultSSD()
	m.Capacity = capacity
	m.ReadLatency /= 1000
	m.WriteLatency /= 1000
	m.ReadBandwidth *= 1000
	m.WriteBandwidth *= 1000
	return m
}

func fastHDD(capacity int64) simdisk.HDDModel {
	m := simdisk.DefaultHDD()
	m.Capacity = capacity
	m.SeekMax /= 1000
	m.SeekSettle /= 1000
	m.RPM *= 1000
	m.Bandwidth *= 1000
	return m
}

func newEnv(t *testing.T, ssdJournalSize int64, withHDDJournal bool) (*testEnv, func()) {
	return newEnvStart(t, ssdJournalSize, withHDDJournal, true)
}

// newEnvStart optionally defers Start so tests can stage appends before the
// replayer runs. The test defers the close it returns.
func newEnvStart(t *testing.T, ssdJournalSize int64, withHDDJournal, start bool) (*testEnv, func()) {
	t.Helper()
	clk := clock.Realtime

	hm := fastHDD(512 * util.MiB)
	hdd := simdisk.NewHDD(hm, clk)

	sm := fastSSD(256 * util.MiB)
	ssd := simdisk.NewSSD(sm, clk)

	// Backup chunks live on the front of the HDD; the HDD journal (when
	// present) takes the tail 64 MiB.
	sinkLimit := int64(0)
	if withHDDJournal {
		sinkLimit = hm.Capacity - 64*util.MiB
	}
	sink := blockstore.New(hdd, sinkLimit)

	set := NewSet(clk, sink, Config{})
	set.AddSSDJournal("ssd0", ssd, 0, ssdJournalSize)
	if withHDDJournal {
		set.AddHDDJournal("hdd", hdd, sinkLimit, 64*util.MiB)
	}
	if start {
		set.Start()
	}
	return &testEnv{set: set, sink: sink, ssd: ssd, hdd: hdd}, func() {
		set.Close()
		ssd.Close()
		hdd.Close()
	}
}

func (e *testEnv) mustChunk(t *testing.T, id blockstore.ChunkID) {
	t.Helper()
	if err := e.sink.Create(id); err != nil {
		t.Fatal(err)
	}
}

func TestAppendReadThroughJournal(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t, 16*util.MiB, false)
		defer cleanup()
		id := blockstore.MakeChunkID(1, 0)
		e.mustChunk(t, id)

		data := make([]byte, 4*util.KiB)
		util.NewRand(1).Fill(data)
		if err := e.set.Append(nil, id, 8192, data, 1); err != nil {
			t.Fatal(err)
		}
		// Read must be served from the journal even before replay.
		got := make([]byte, len(data))
		if err := e.set.Read(id, got, 8192); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("journal read mismatch")
		}
	})
}

func TestReplayReachesSink(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t, 16*util.MiB, false)
		defer cleanup()
		id := blockstore.MakeChunkID(1, 0)
		e.mustChunk(t, id)

		data := make([]byte, 4*util.KiB)
		util.NewRand(2).Fill(data)
		if err := e.set.Append(nil, id, 0, data, 1); err != nil {
			t.Fatal(err)
		}
		e.set.Drain()
		if p := e.set.Pending(); p != 0 {
			t.Fatalf("pending after drain = %d", p)
		}
		// Data must now be on the HDD chunk store directly.
		got := make([]byte, len(data))
		if err := e.sink.ReadAt(id, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("replayed data mismatch on sink")
		}
		// And journal reads still work (via the sink fall-through).
		got2 := make([]byte, len(data))
		if err := e.set.Read(id, got2, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got2, data) {
			t.Error("post-replay read mismatch")
		}
	})
}

func TestOverwriteMergesAtReplay(t *testing.T) {
	clock.Test(t, func() {
		// Replayer deliberately not started until both appends are staged, so
		// the overwrite is guaranteed to be pending at replay time.
		e, cleanup := newEnvStart(t, 16*util.MiB, false, false)
		defer cleanup()
		id := blockstore.MakeChunkID(1, 0)
		e.mustChunk(t, id)

		old := bytes.Repeat([]byte{0x01}, 4096)
		new1 := bytes.Repeat([]byte{0x02}, 4096)
		if err := e.set.Append(nil, id, 0, old, 1); err != nil {
			t.Fatal(err)
		}
		if err := e.set.Append(nil, id, 0, new1, 2); err != nil {
			t.Fatal(err)
		}
		e.set.Start()
		e.set.Drain()
		st := e.set.Stats()
		if st.MergedSectors == 0 {
			t.Errorf("overwrite not merged: %+v", st)
		}
		got := make([]byte, 4096)
		if err := e.sink.ReadAt(id, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, new1) {
			t.Error("sink holds stale data after merge")
		}
	})
}

func TestPartialOverwriteKeepsTails(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t, 16*util.MiB, false)
		defer cleanup()
		id := blockstore.MakeChunkID(1, 0)
		e.mustChunk(t, id)

		base := bytes.Repeat([]byte{0xaa}, 8192)
		mid := bytes.Repeat([]byte{0xbb}, 1024)
		if err := e.set.Append(nil, id, 0, base, 1); err != nil {
			t.Fatal(err)
		}
		if err := e.set.Append(nil, id, 2048, mid, 2); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, 8192)
		copy(want, base)
		copy(want[2048:], mid)

		got := make([]byte, 8192)
		if err := e.set.Read(id, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Error("pre-replay composite read mismatch")
		}
		e.set.Drain()
		got2 := make([]byte, 8192)
		if err := e.sink.ReadAt(id, got2, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got2, want) {
			t.Error("post-replay sink mismatch")
		}
	})
}

func TestInvalidate(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t, 16*util.MiB, false)
		defer cleanup()
		id := blockstore.MakeChunkID(1, 0)
		e.mustChunk(t, id)

		jdata := bytes.Repeat([]byte{0x11}, 4096)
		direct := bytes.Repeat([]byte{0x22}, 4096)
		if err := e.set.Append(nil, id, 0, jdata, 1); err != nil {
			t.Fatal(err)
		}
		// A journal-bypass write: straight to the backup disk with journal
		// invalidation, serialized against any in-flight replay.
		if err := e.set.WriteDirect(id, direct, 0); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 4096)
		if err := e.set.Read(id, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, direct) {
			t.Error("read returned invalidated journal data")
		}
		// Replay of the stale record must not clobber the direct write.
		e.set.Drain()
		got2 := make([]byte, 4096)
		if err := e.sink.ReadAt(id, got2, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got2, direct) {
			t.Error("stale journal record replayed over direct write")
		}
	})
}

func TestQuotaExhaustionAndExpansion(t *testing.T) {
	clock.Test(t, func() {
		// A tiny SSD journal (64 KiB) overflows quickly; with an HDD journal
		// configured, appends expand there instead of failing. The replayer is
		// deferred: batched replay coalesces these adjacent appends into single
		// large sink writes and would otherwise drain the tiny journal as fast
		// as one goroutine can fill it, making expansion timing-dependent.
		e, cleanup := newEnvStart(t, 64*util.KiB, true, false)
		defer cleanup()
		id := blockstore.MakeChunkID(1, 0)
		e.mustChunk(t, id)

		data := make([]byte, 4*util.KiB)
		for i := 0; i < 64; i++ {
			if err := e.set.Append(nil, id, int64(i)*4096, data, uint64(i+1)); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
		js := e.set.JournalStats()
		if len(js) != 2 {
			t.Fatalf("journals = %+v", js)
		}
		if js[1].Appends == 0 {
			t.Errorf("HDD journal never used: %+v", js)
		}
		e.set.Start()
		e.set.Drain()
		// All data must land on the sink correctly.
		got := make([]byte, 4096)
		for i := 0; i < 64; i++ {
			if err := e.sink.ReadAt(id, got, int64(i)*4096); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("chunk range %d mismatch after expansion replay", i)
			}
		}
	})
}

func TestQuotaErrorWithoutExpansion(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t, 64*util.KiB, false)
		defer cleanup()
		id := blockstore.MakeChunkID(1, 0)
		e.mustChunk(t, id)

		// Stop the replayer from freeing space to force exhaustion.
		e.set.Close()
		data := make([]byte, 8*util.KiB)
		var sawQuota bool
		for i := 0; i < 32; i++ {
			err := e.set.Append(nil, id, int64(i)*8192, data, uint64(i+1))
			if errors.Is(err, util.ErrQuota) {
				sawQuota = true
				break
			}
			if errors.Is(err, util.ErrClosed) {
				// Close also rejects appends; re-create env semantics: done.
				return
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		_ = sawQuota
	})
}

func TestJournalWrapAround(t *testing.T) {
	clock.Test(t, func() {
		// Journal big enough for ~3 records; append and drain repeatedly to
		// force wraps, verifying data integrity throughout.
		e, cleanup := newEnv(t, 16*util.KiB, false)
		defer cleanup()
		id := blockstore.MakeChunkID(1, 0)
		e.mustChunk(t, id)

		r := util.NewRand(7)
		for i := 0; i < 40; i++ {
			data := make([]byte, 4*util.KiB)
			r.Fill(data)
			off := int64(i%10) * 4096
			if err := e.set.Append(nil, id, off, data, uint64(i+1)); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
			e.set.Drain()
			got := make([]byte, len(data))
			if err := e.set.Read(id, got, off); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("wrap iteration %d mismatch", i)
			}
		}
	})
}

func TestUnalignedRejected(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t, util.MiB, false)
		defer cleanup()
		id := blockstore.MakeChunkID(1, 0)
		e.mustChunk(t, id)
		if err := e.set.Append(nil, id, 100, make([]byte, 512), 1); !errors.Is(err, util.ErrOutOfRange) {
			t.Errorf("unaligned offset: %v", err)
		}
		if err := e.set.Append(nil, id, 0, make([]byte, 100), 1); !errors.Is(err, util.ErrOutOfRange) {
			t.Errorf("unaligned length: %v", err)
		}
		if err := e.set.Read(id, make([]byte, 100), 0); !errors.Is(err, util.ErrOutOfRange) {
			t.Errorf("unaligned read: %v", err)
		}
		if err := e.set.Append(nil, id, 0, nil, 1); !errors.Is(err, util.ErrOutOfRange) {
			t.Errorf("empty append: %v", err)
		}
	})
}

func TestConcurrentChunks(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t, 32*util.MiB, false)
		defer cleanup()
		const nchunks = 8
		ids := make([]blockstore.ChunkID, nchunks)
		for i := range ids {
			ids[i] = blockstore.MakeChunkID(1, uint32(i))
			e.mustChunk(t, ids[i])
		}
		var wg sync.WaitGroup
		for c := 0; c < nchunks; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				r := util.NewRand(uint64(c))
				data := make([]byte, 4096)
				for i := 0; i < 30; i++ {
					r.Fill(data)
					off := util.AlignDown(r.Int63n(util.ChunkSize-4096), 512)
					if err := e.set.Append(nil, ids[c], off, data, uint64(i+1)); err != nil {
						t.Errorf("chunk %d append: %v", c, err)
						return
					}
					got := make([]byte, 4096)
					if err := e.set.Read(ids[c], got, off); err != nil {
						t.Errorf("chunk %d read: %v", c, err)
						return
					}
					if !bytes.Equal(got, data) {
						t.Errorf("chunk %d mismatch", c)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		e.set.Drain()
	})
}

func TestDropChunk(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t, util.MiB, false)
		defer cleanup()
		id := blockstore.MakeChunkID(1, 0)
		e.mustChunk(t, id)
		if err := e.set.Append(nil, id, 0, make([]byte, 4096), 1); err != nil {
			t.Fatal(err)
		}
		e.set.DropChunk(id)
		e.set.Drain() // replay of the orphan record must not panic
	})
}

func TestLiteBasics(t *testing.T) {
	clock.Test(t, func() {
		l := NewLite(4)
		l.Record(1, 0, 512)
		l.Record(2, 1024, 512)
		l.Record(3, 2048, 1024)
		mods, ok := l.Since(1)
		if !ok || len(mods) != 2 {
			t.Fatalf("Since(1) = %v, %v", mods, ok)
		}
		if mods[0].Version != 2 || mods[1].Version != 3 {
			t.Errorf("mods = %v", mods)
		}
		if mods, ok := l.Since(3); !ok || len(mods) != 0 {
			t.Errorf("Since(3) = %v, %v", mods, ok)
		}
	})
}

func TestLiteEviction(t *testing.T) {
	clock.Test(t, func() {
		l := NewLite(2)
		l.Record(1, 0, 512)
		l.Record(2, 512, 512)
		l.Record(3, 1024, 512) // evicts version 1
		if _, ok := l.Since(0); ok {
			t.Error("Since(0) should fail after eviction")
		}
		if _, ok := l.Since(1); !ok {
			t.Error("Since(1) should succeed: history from 2 intact")
		}
		if l.Len() != 2 {
			t.Errorf("Len = %d", l.Len())
		}
	})
}

// TestStatsAllocatesNothing: a counter snapshot reads Set.Stats from every
// journal set of a cluster at every window, so the totals must not cost an
// allocation; the per-journal detail is JournalStats'.
func TestStatsAllocatesNothing(t *testing.T) {
	clock.Test(t, func() {
		e, done := newEnv(t, 16*util.MiB, true)
		defer done()
		id := blockstore.MakeChunkID(1, 0)
		e.mustChunk(t, id)
		if err := e.set.Append(nil, id, 0, make([]byte, 4*util.KiB), 1); err != nil {
			t.Fatal(err)
		}
		var st SetStats
		if n := testing.AllocsPerRun(100, func() { st = e.set.Stats() }); n != 0 {
			t.Errorf("Stats allocates %.1f times per call", n)
		}
		if st.Flushes == 0 {
			t.Errorf("stats after an append: %+v", st)
		}
		if js := e.set.JournalStats(); len(js) != 2 || js[0].Appends+js[1].Appends != 1 {
			t.Errorf("journal stats after one append: %+v", js)
		}
	})
}
