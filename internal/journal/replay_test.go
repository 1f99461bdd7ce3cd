package journal

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/clock"
	"ursa/internal/reclog"
	"ursa/internal/simdisk"
	"ursa/internal/util"
)

// gatedReads is a journal device whose reads can be held at a gate: while
// armed, a ReadAt announces itself on entered and blocks until the gate is
// closed. Writes always pass.
type gatedReads struct {
	simdisk.Disk
	armed   atomic.Bool
	entered chan struct{} // buffered: one token per held read
	gate    chan struct{} // closed to release every held read
	once    sync.Once
}

// release disarms the gate and lets every held read through.
func (g *gatedReads) release() {
	g.armed.Store(false)
	g.once.Do(func() { close(g.gate) })
}

func newGatedReads(d simdisk.Disk) *gatedReads {
	return &gatedReads{Disk: d, entered: make(chan struct{}, 64), gate: make(chan struct{})}
}

func (g *gatedReads) ReadAt(p []byte, off int64) error {
	if g.armed.Load() {
		g.entered <- struct{}{}
		<-g.gate
	}
	return g.Disk.ReadAt(p, off)
}

// gatedEnv is a journal set over one gated SSD journal and an HDD sink, and
// its close.
func gatedEnv(t *testing.T) (*Set, *blockstore.Store, *gatedReads, func()) {
	t.Helper()
	clk := clock.Realtime
	hm := fastHDD(512 * util.MiB)
	hdd := simdisk.NewHDD(hm, clk)
	sm := fastSSD(64 * util.MiB)
	ssd := simdisk.NewSSD(sm, clk)
	jd := newGatedReads(ssd)
	sink := blockstore.New(hdd, 0)
	set := NewSet(clk, sink, Config{})
	set.AddSSDJournal("ssd0", jd, 0, 16*util.MiB)
	return set, sink, jd, func() {
		jd.release() // a failed test must not leave the replayer held
		set.Close()
		ssd.Close()
		hdd.Close()
	}
}

// within fails the test unless fn returns before the deadline: the
// assertion that something did NOT wait for a held journal read.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s blocked behind a held journal-device read", what)
	}
}

// TestAppendNeverWaitsForReplayReads holds the replayer inside a journal
// device read of a full window and appends meanwhile: every append must
// commit while that read is still outstanding — the set mutex is not held
// across replay I/O.
func TestAppendNeverWaitsForReplayReads(t *testing.T) {
	clock.Test(t, func() {
		set, sink, jd, cleanup := gatedEnv(t)
		defer cleanup()
		id := blockstore.MakeChunkID(1, 0)
		if err := sink.Create(id); err != nil {
			t.Fatal(err)
		}
		const n = 96
		want := make([]byte, (n+8)*8192)
		r := util.NewRand(41)
		put := func(i int) {
			data := want[i*8192:][:4096]
			r.Fill(data)
			if err := set.Append(nil, id, int64(i)*8192, data, uint64(i+1)); err != nil {
				t.Errorf("append %d: %v", i, err)
			}
		}
		for i := 0; i < n; i++ {
			put(i)
		}
		dropResidency(set) // the window must go to the device

		jd.armed.Store(true)
		set.Start()
		<-jd.entered // the replayer is now inside its first window read

		within(t, "Append", func() {
			for i := n; i < n+8; i++ {
				put(i)
			}
		})
		within(t, "Stats/Pending", func() {
			if p := set.Pending(); p != n+8 {
				t.Errorf("pending with the window held = %d, want %d", p, n+8)
			}
		})

		jd.release()
		set.Drain()
		got := make([]byte, len(want))
		if err := sink.ReadAt(id, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Error("sink content after drain differs from what was appended")
		}
	})
}

// TestReadDoesNotHoldLockAcrossJournalIO holds a backup Read inside its
// journal device read: an Append must still commit, and the Read must
// return the journaled bytes once released.
func TestReadDoesNotHoldLockAcrossJournalIO(t *testing.T) {
	clock.Test(t, func() {
		set, sink, jd, cleanup := gatedEnv(t) // replayer never started: the record stays journaled
		defer cleanup()
		id := blockstore.MakeChunkID(1, 0)
		if err := sink.Create(id); err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 4096)
		util.NewRand(42).Fill(data)
		if err := set.Append(nil, id, 0, data, 1); err != nil {
			t.Fatal(err)
		}

		jd.armed.Store(true)
		got := make([]byte, 4096)
		readDone := make(chan error, 1)
		go func() { readDone <- set.Read(id, got, 0) }()
		<-jd.entered

		within(t, "Append", func() {
			if err := set.Append(nil, id, 8192, data, 2); err != nil {
				t.Errorf("append during held read: %v", err)
			}
		})
		jd.release()
		if err := <-readDone; err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("held read returned wrong bytes")
		}
	})
}

// TestReplayReadsEachRecordOnce: N disjoint scattered 4 KiB records that
// are not resident replay with at most one journal-device read per coalesced
// run, not one byte read twice, and at most one sink write per record.
func TestReplayReadsEachRecordOnce(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnvStart(t, 16*util.MiB, false, false)
		defer cleanup()
		id := blockstore.MakeChunkID(1, 0)
		e.mustChunk(t, id)
		const n = 150
		want := make(map[int64][]byte, n)
		r := util.NewRand(43)
		for i := 0; i < n; i++ {
			off := int64(i*37%1024) * 16384 // distinct, never adjacent
			data := make([]byte, 4096)
			r.Fill(data)
			want[off] = data
			if err := e.set.Append(nil, id, off, data, uint64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		dropResidency(e.set)
		j0, s0 := e.ssd.Stats(), e.hdd.Stats()
		e.set.Start()
		e.set.Drain()
		j1, s1 := e.ssd.Stats(), e.hdd.Stats()

		// The records sit back to back in the journal: they coalesce into
		// ceil(total/replayIOBytes) reads (+1 for the run a budget cut splits).
		total := int64(n) * reclog.RecordBytes(4096)
		maxReads := (total+replayIOBytes-1)/replayIOBytes + 1
		if reads := j1.Reads - j0.Reads; reads > maxReads {
			t.Errorf("journal reads = %d for %d records, want <= %d coalesced runs", reads, n, maxReads)
		}
		if got := j1.BytesRead - j0.BytesRead; got != total {
			t.Errorf("journal bytes read = %d, want exactly %d (each record once)", got, total)
		}
		if writes := s1.Writes - s0.Writes; writes > n {
			t.Errorf("sink writes = %d, want <= %d", writes, n)
		}
		if reads := s1.Reads - s0.Reads; reads != 0 {
			t.Errorf("replay read the sink %d times", reads)
		}
		got := make([]byte, 4096)
		for off, data := range want {
			if err := e.sink.ReadAt(id, got, off); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("sink mismatch at %d", off)
			}
		}
	})
}

// TestReplaySkipsDeadRecord: a record whose every sector was overwritten
// before replay is neither read nor verified — rot and read errors over
// its journal bytes go unnoticed and the window drains.
func TestReplaySkipsDeadRecord(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newFaultEnv(t, 1, false)
		defer cleanup()
		id := blockstore.MakeChunkID(1, 0)
		if err := e.sink.Create(id); err != nil {
			t.Fatal(err)
		}
		old := bytes.Repeat([]byte{0x01}, 4096)
		cur := bytes.Repeat([]byte{0x02}, 4096)
		if err := e.set.Append(nil, id, 0, old, 1); err != nil {
			t.Fatal(err)
		}
		if err := e.set.Append(nil, id, 0, cur, 2); err != nil {
			t.Fatal(err)
		}
		dropResidency(e.set)
		// The dead record occupies device bytes [0, 4608).
		e.jdisks[0].CorruptRange(0, 4608, true)
		e.jdisks[0].FailReadRange(nil, 0, 4608)
		e.set.Start()
		e.set.Drain()

		st := e.set.Stats()
		if st.ReplayCorrupt != 0 || st.ReplayErrors != 0 {
			t.Errorf("dead record was read or verified: %+v", st)
		}
		if fs := e.jdisks[0].FaultStats(); fs.ReadsFailed != 0 || fs.ReadsCorrupted != 0 {
			t.Errorf("journal reads touched the dead record: %+v", fs)
		}
		if got := e.jdisks[0].Stats().BytesRead; got != reclog.RecordBytes(4096) {
			t.Errorf("journal bytes read = %d, want one record", got)
		}
		got := make([]byte, 4096)
		if err := e.sink.ReadAt(id, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, cur) {
			t.Error("sink does not hold the newest write")
		}
	})
}

// TestCorruptRecordParksWholeWindow: bit-rot in one non-resident record of
// a multi-chunk window parks the whole window — nothing is popped — reports
// only the rotted record's chunk, and lets no byte of that record reach
// the sink; after heal the window drains intact.
func TestCorruptRecordParksWholeWindow(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newFaultEnv(t, 1, false)
		defer cleanup()
		a, b := blockstore.MakeChunkID(1, 0), blockstore.MakeChunkID(1, 1)
		for _, id := range []blockstore.ChunkID{a, b} {
			if err := e.sink.Create(id); err != nil {
				t.Fatal(err)
			}
		}
		var badReports atomic.Int64
		e.set.OnFault(func(id blockstore.ChunkID, err error) {
			if id != b || !errors.Is(err, util.ErrCorrupt) {
				badReports.Add(1)
			}
		})
		recs := []struct {
			id   blockstore.ChunkID
			off  int64
			data []byte
		}{{a, 0, nil}, {b, 0, nil}, {a, 65536, nil}}
		r := util.NewRand(44)
		for i := range recs {
			recs[i].data = make([]byte, 4096)
			r.Fill(recs[i].data)
			if err := e.set.Append(nil, recs[i].id, recs[i].off, recs[i].data, uint64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		dropResidency(e.set)
		// Record 1 (chunk b) sits at device bytes [4608, 9216): rot one payload
		// sector in its middle.
		e.jdisks[0].CorruptRange(4608+2048, 4608+2560, true)
		e.set.Start()

		deadline := time.Now().Add(5 * time.Second)
		for e.reg.Counter(MetricReplayCorrupt).Load() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("corrupt replay never observed")
			}
			time.Sleep(time.Millisecond)
		}
		if p := e.set.Pending(); p != 3 {
			t.Fatalf("pending with a parked window = %d, want the whole window (3)", p)
		}
		got := make([]byte, 4096)
		if err := e.sink.ReadAt(b, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, make([]byte, 4096)) {
			t.Fatal("bytes of the rotted record reached the sink")
		}

		e.jdisks[0].Heal()
		e.set.Drain()
		if badReports.Load() != 0 {
			t.Errorf("%d reports named the wrong chunk or cause", badReports.Load())
		}
		for _, rec := range recs {
			if err := e.sink.ReadAt(rec.id, got, rec.off); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, rec.data) {
				t.Errorf("chunk %v@%d not replayed intact after heal", rec.id, rec.off)
			}
		}
	})
}

// depthDisk reports extra queued requests on top of the wrapped disk's own:
// the test's stand-in for a foreground request sitting in the device queue.
type depthDisk struct {
	simdisk.Disk
	extra atomic.Int32
}

func (d *depthDisk) QueueDepth() int { return d.Disk.QueueDepth() + int(d.extra.Load()) }

// hookSink is a sink that logs every write and runs a hook before it.
type hookSink struct {
	*blockstore.Store
	disk *depthDisk
	hook func(id blockstore.ChunkID, off int64)

	mu  sync.Mutex
	log []sinkWrite
}

type sinkWrite struct {
	id  blockstore.ChunkID
	off int64
}

func (h *hookSink) Disk() simdisk.Disk { return h.disk }

func (h *hookSink) WriteAt(id blockstore.ChunkID, p []byte, off int64) error {
	h.hook(id, off)
	h.mu.Lock()
	h.log = append(h.log, sinkWrite{id, off})
	h.mu.Unlock()
	return h.Store.WriteAt(id, p, off)
}

func (h *hookSink) writes() []sinkWrite {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]sinkWrite(nil), h.log...)
}

// TestForegroundWritePreemptsWindow: a bypass write that arrives on the
// backup disk in the middle of a replay window makes the replayer abandon
// the rest of the window — no further replay write is issued while the
// foreground write is outstanding — and the abandoned window later replays
// each remaining extent exactly once, to byte-identical content.
func TestForegroundWritePreemptsWindow(t *testing.T) {
	clock.Test(t, func() {
		clk := clock.Realtime
		hm := fastHDD(512 * util.MiB)
		hdd := simdisk.NewHDD(hm, clk)
		sm := fastSSD(64 * util.MiB)
		ssd := simdisk.NewSSD(sm, clk)
		store := blockstore.New(hdd, 0)
		sink := &hookSink{Store: store, disk: &depthDisk{Disk: hdd}}
		set := NewSet(clk, sink, Config{})
		set.AddSSDJournal("ssd0", ssd, 0, 16*util.MiB)
		defer func() {
			set.Close()
			ssd.Close()
			hdd.Close()
		}()

		replayed := blockstore.MakeChunkID(1, 0)
		direct := blockstore.MakeChunkID(1, 1)
		for set.chunkLock(direct) == set.chunkLock(replayed) {
			direct++ // the bypass write must not merely queue on the chunk lock
		}
		for _, id := range []blockstore.ChunkID{replayed, direct} {
			if err := store.Create(id); err != nil {
				t.Fatal(err)
			}
		}

		const n, preemptAt = 32, 3
		want := make([]byte, n*8192)
		r := util.NewRand(45)
		for i := 0; i < n; i++ {
			data := want[i*8192:][:4096]
			r.Fill(data)
			if err := set.Append(nil, replayed, int64(i)*8192, data, uint64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		directData := make([]byte, 65536)
		r.Fill(directData)

		queued := make(chan struct{})  // the bypass write is in the device queue
		release := make(chan struct{}) // the test lets it through
		directDone := make(chan error, 1)
		var replayWrites int
		sink.hook = func(id blockstore.ChunkID, off int64) {
			if id == direct {
				sink.disk.extra.Store(1)
				close(queued)
				<-release
				sink.disk.extra.Store(0)
				return
			}
			// Replayer goroutine: launch the foreground write under the window's
			// third sink write and wait until it is queued.
			if replayWrites++; replayWrites == preemptAt {
				go func() { directDone <- set.WriteDirect(direct, directData, 0) }()
				<-queued
			}
		}

		set.Start()
		<-queued
		// Hold the foreground write for many poll intervals: the replayer must
		// sit out, not work through the rest of its window.
		time.Sleep(50 * time.Millisecond)
		if got := len(sink.writes()); got != preemptAt {
			t.Fatalf("%d sink writes with a foreground write outstanding, want the window abandoned after %d", got, preemptAt)
		}
		if p := set.Pending(); p != n {
			t.Errorf("abandoned window popped records: pending = %d, want %d", p, n)
		}
		close(release)
		if err := <-directDone; err != nil {
			t.Fatal(err)
		}
		set.Drain()

		log := sink.writes()
		if log[preemptAt].id != direct {
			t.Errorf("write %d went to %v, want the foreground write served first", preemptAt, log[preemptAt].id)
		}
		seen := make(map[int64]bool)
		for _, w := range log {
			if w.id != replayed {
				continue
			}
			if seen[w.off] {
				t.Errorf("extent at %d replayed twice across the abandoned window", w.off)
			}
			seen[w.off] = true
		}
		if len(seen) != n {
			t.Errorf("%d extents replayed, want %d", len(seen), n)
		}
		got := make([]byte, len(want))
		if err := store.ReadAt(replayed, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Error("replayed chunk differs from what was appended")
		}
		got = got[:len(directData)]
		if err := store.ReadAt(direct, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, directData) {
			t.Error("foreground write content mismatch")
		}
	})
}

// TestDiscardUnderWrap wraps a small journal several times with the
// replayer trimming behind it: every read — through the journal while data
// is pending, from the sink after — matches a flat model, so no discard ever
// reached bytes at or ahead of the tail; and the journal device holds no
// more than the live span plus the page at the tail (plus the two pages a
// misaligned region shares with its neighbours).
func TestDiscardUnderWrap(t *testing.T) {
	for _, tc := range []struct {
		name      string
		base      int64
		slackPage int64
	}{
		{"aligned", 0, 1},
		{"misaligned", 9 * util.SectorSize, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock.Test(t, func() {
				clk := clock.Realtime
				hm := fastHDD(512 * util.MiB)
				hdd := simdisk.NewHDD(hm, clk)
				sm := fastSSD(64 * util.MiB)
				ssd := simdisk.NewSSD(sm, clk)
				sink := blockstore.New(hdd, 0)
				set := NewSet(clk, sink, Config{})
				const jsize = 1 * util.MiB
				set.AddSSDJournal("ssd0", ssd, tc.base, jsize)
				defer func() {
					set.Close()
					ssd.Close()
					hdd.Close()
				}()
				id := blockstore.MakeChunkID(1, 0)
				if err := sink.Create(id); err != nil {
					t.Fatal(err)
				}

				const span = 2 * util.MiB // chunk range the writes land in
				model := make([]byte, span)
				r := util.NewRand(46)
				data := make([]byte, 16384)
				got := make([]byte, 32768)
				slack := tc.slackPage * simdisk.DiscardGranule
				check := func(when string) {
					t.Helper()
					off := util.AlignDown(r.Int63n(span-int64(len(got))), util.SectorSize)
					if err := set.Read(id, got, off); err != nil {
						t.Fatalf("%s: read: %v", when, err)
					}
					if !bytes.Equal(got, model[off:off+int64(len(got))]) {
						t.Fatalf("%s: read at %d differs from the model", when, off)
					}
				}

				// Fill the journal to quota before the replayer starts, so the
				// first windows retire with appenders about to lap the tail page.
				var appended int64
				version := uint64(0)
				put := func() error {
					n := (r.Intn(4) + 1) * 4096
					off := util.AlignDown(r.Int63n(span-int64(n)), util.SectorSize)
					r.Fill(data[:n])
					version++
					err := set.Append(nil, id, off, data[:n], version)
					if err == nil {
						copy(model[off:], data[:n])
						appended += reclog.RecordBytes(n)
					}
					return err
				}
				for {
					if err := put(); errors.Is(err, util.ErrQuota) {
						break
					} else if err != nil {
						t.Fatal(err)
					}
				}
				set.Start()

				for appended < 4*jsize {
					err := put()
					if errors.Is(err, util.ErrQuota) {
						check("journal full")
						set.Drain()
						if used := ssd.UsedBytes(); used > slack {
							t.Fatalf("drained journal pins %d bytes, want <= %d", used, slack)
						}
						continue
					}
					if err != nil {
						t.Fatal(err)
					}
					check("appending")
				}
				set.Drain()
				if used := ssd.UsedBytes(); used > slack {
					t.Errorf("drained journal pins %d bytes after %d wraps, want <= %d",
						used, appended/jsize, slack)
				}
				for off := int64(0); off < span; off += int64(len(got)) {
					if err := sink.ReadAt(id, got, off); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, model[off:off+int64(len(got))]) {
						t.Fatalf("sink differs from the model at %d after the final drain", off)
					}
				}
			})
		})
	}
}

// TestReplayRefusesRecordOfPreviousLap: where a pending record's image
// belongs, the journal device holds instead the image of the record that
// sat there one lap earlier — same chunk, offset, length and version, a
// payload its CRC matches. Replay must refuse it as corrupt, park the
// window and leave the sink as it was, because the header was written for
// a position one lap before.
func TestReplayRefusesRecordOfPreviousLap(t *testing.T) {
	clock.Test(t, func() {
		const recBytes = util.SectorSize + 4096 // header sector and payload
		const lap = 8 * recBytes
		clk := clock.Realtime
		hdd := simdisk.NewHDD(fastHDD(512*util.MiB), clk)
		ssd := simdisk.NewSSD(fastSSD(64*util.MiB), clk)
		sink := blockstore.New(hdd, 0)
		set := NewSet(clk, sink, Config{})
		set.AddSSDJournal("ssd0", ssd, 0, lap)
		defer func() {
			set.Close()
			ssd.Close()
			hdd.Close()
		}()
		id := blockstore.MakeChunkID(1, 0)
		if err := sink.Create(id); err != nil {
			t.Fatal(err)
		}
		old := bytes.Repeat([]byte{0xa1}, 4096)
		cur := bytes.Repeat([]byte{0xb2}, 4096)
		mid := bytes.Repeat([]byte{0xc3}, 4096)

		// Lap 0: the record at device offset 0, then seven more to fill it.
		if err := set.Append(nil, id, 0, old, 7); err != nil {
			t.Fatal(err)
		}
		stale := make([]byte, recBytes)
		if err := ssd.ReadAt(stale, 0); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < 8; i++ {
			if err := set.Append(nil, id, int64(i)*8192, mid, uint64(7+i)); err != nil {
				t.Fatal(err)
			}
		}
		drainByHand(t, set)
		if err := set.WriteDirect(id, mid, 0); err != nil {
			t.Fatal(err)
		}

		// Lap 1: the same chunk, offset, length and version at device offset
		// 0, its image then replaced by the one lap 0 left there.
		if err := set.Append(nil, id, 0, cur, 7); err != nil {
			t.Fatal(err)
		}
		dropResidency(set)
		if err := ssd.WriteAt(stale, 0); err != nil {
			t.Fatal(err)
		}
		if replayWindowByHand(t, set) {
			t.Fatal("replay accepted the previous lap's record")
		}
		if st := set.Stats(); st.ReplayCorrupt != 1 || st.Pending != 1 {
			t.Fatalf("replay corrupt %d, pending %d; want the window parked as corrupt", st.ReplayCorrupt, st.Pending)
		}
		got := make([]byte, 4096)
		if err := sink.ReadAt(id, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, mid) {
			t.Fatal("the previous lap's payload reached the sink")
		}
	})
}
