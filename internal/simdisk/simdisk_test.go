package simdisk

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"ursa/internal/clock"
	"ursa/internal/util"
)

// fastSSD returns a small SSD on the real clock, its model a thousand times
// faster than the default (testSSD).
func fastSSD() *SSD { return NewSSD(testSSD(), clock.Realtime) }

func fastHDD() *HDD { return NewHDD(testHDD(), clock.Realtime) }

// testSSD is DefaultSSD at 64 MiB with every latency a thousandth and every
// rate a thousand times: an op costs the host's sleep floor, and the model's
// proportions hold.
func testSSD() SSDModel {
	m := DefaultSSD()
	m.Capacity = 64 * util.MiB
	m.ReadLatency /= 1000
	m.WriteLatency /= 1000
	m.ReadBandwidth *= 1000
	m.WriteBandwidth *= 1000
	return m
}

// testHDD is DefaultHDD at 256 MiB, a thousand times faster as testSSD is:
// busy-time ratios (random against sequential, bytes per busy second) are the
// model's.
func testHDD() HDDModel {
	m := DefaultHDD()
	m.Capacity = 256 * util.MiB
	m.SeekMax /= 1000
	m.SeekSettle /= 1000
	m.RPM *= 1000
	m.Bandwidth *= 1000
	return m
}

func TestMemStoreReadWrite(t *testing.T) {
	s := newMemStore(1 * util.MiB)
	data := []byte("the quick brown fox")
	if err := s.writeAt(data, 1000); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := s.readAt(got, 1000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("read back %q", got)
	}
}

func TestMemStoreHolesReadZero(t *testing.T) {
	s := newMemStore(1 * util.MiB)
	if err := s.writeAt([]byte{0xff}, 500000); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 100)
	for i := range buf {
		buf[i] = 0xaa // ensure readAt clears holes
	}
	if err := s.readAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("hole byte %d = %#x", i, b)
		}
	}
}

func TestMemStoreCrossPageBoundary(t *testing.T) {
	s := newMemStore(1 * util.MiB)
	data := make([]byte, 3*pageSize)
	util.NewRand(1).Fill(data)
	off := int64(pageSize - 100) // straddles several pages
	if err := s.writeAt(data, off); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := s.readAt(got, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("cross-page write/read mismatch")
	}
}

func TestMemStoreBounds(t *testing.T) {
	s := newMemStore(1024)
	if err := s.writeAt([]byte{1}, 1024); !errors.Is(err, util.ErrOutOfRange) {
		t.Errorf("write past end: %v", err)
	}
	if err := s.readAt(make([]byte, 2), 1023); !errors.Is(err, util.ErrOutOfRange) {
		t.Errorf("read past end: %v", err)
	}
	if err := s.writeAt([]byte{1}, -1); !errors.Is(err, util.ErrOutOfRange) {
		t.Errorf("negative offset: %v", err)
	}
}

func TestMemStoreRandomizedProperty(t *testing.T) {
	// Model-based check: memStore must behave exactly like a flat []byte.
	s := newMemStore(256 * util.KiB)
	model := make([]byte, 256*util.KiB)
	r := util.NewRand(42)
	for i := 0; i < 500; i++ {
		off := r.Int63n(250 * util.KiB)
		n := r.Intn(4096) + 1
		if r.Float64() < 0.6 {
			buf := make([]byte, n)
			r.Fill(buf)
			if err := s.writeAt(buf, off); err != nil {
				t.Fatal(err)
			}
			copy(model[off:], buf)
		} else {
			got := make([]byte, n)
			if err := s.readAt(got, off); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, model[off:off+int64(n)]) {
				t.Fatalf("divergence at op %d off=%d n=%d", i, off, n)
			}
		}
	}
}

func TestSSDReadWriteRoundTrip(t *testing.T) {
	d := fastSSD()
	defer d.Close()
	data := make([]byte, 4*util.KiB)
	util.NewRand(2).Fill(data)
	if err := d.WriteAt(data, 8192); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := d.ReadAt(got, 8192); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("SSD round trip mismatch")
	}
	st := d.Stats()
	if st.Reads != 1 || st.Writes != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.BytesRead != 4*util.KiB || st.BytesWrite != 4*util.KiB {
		t.Errorf("byte stats = %+v", st)
	}
}

func TestSSDClosedFails(t *testing.T) {
	d := fastSSD()
	d.Close()
	if err := d.WriteAt([]byte{1}, 0); !errors.Is(err, util.ErrClosed) {
		t.Errorf("write after close: %v", err)
	}
}

func TestSSDParallelism(t *testing.T) {
	// With parallelism P and per-op latency L, N ops from N goroutines
	// should take ≈ N/P * L, not N*L.
	m := SSDModel{
		Capacity:     util.MiB,
		Parallelism:  8,
		ReadLatency:  2 * time.Millisecond,
		WriteLatency: 2 * time.Millisecond,
	}
	d := NewSSD(m, clock.Realtime)
	defer d.Close()
	const n = 32
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]byte, 512)
			if err := d.WriteAt(buf, int64(i)*512); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	// Serial would be 64ms; parallel ideal is 8ms. Accept < 32ms.
	if elapsed > 32*time.Millisecond {
		t.Errorf("32 ops with P=8 L=2ms took %v; parallelism not working", elapsed)
	}
}

func TestHDDRoundTrip(t *testing.T) {
	d := fastHDD()
	defer d.Close()
	data := make([]byte, 64*util.KiB)
	util.NewRand(3).Fill(data)
	if err := d.WriteAt(data, util.MiB); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := d.ReadAt(got, util.MiB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("HDD round trip mismatch")
	}
}

func TestHDDSequentialSkipsSeek(t *testing.T) {
	d := fastHDD()
	defer d.Close()
	buf := make([]byte, 4*util.KiB)
	// First write seeks; subsequent sequential writes must not.
	var off int64
	for i := 0; i < 10; i++ {
		if err := d.WriteAt(buf, off); err != nil {
			t.Fatal(err)
		}
		off += int64(len(buf))
	}
	st := d.Stats()
	if st.Seeks > 1 {
		t.Errorf("sequential writes caused %d seeks", st.Seeks)
	}
}

func TestHDDRandomSeeks(t *testing.T) {
	d := fastHDD()
	defer d.Close()
	buf := make([]byte, 4*util.KiB)
	r := util.NewRand(4)
	for i := 0; i < 20; i++ {
		off := util.AlignDown(r.Int63n(200*util.MiB), 512)
		if err := d.WriteAt(buf, off); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.Seeks < 15 {
		t.Errorf("random writes caused only %d seeks", st.Seeks)
	}
}

func TestHDDRandomVsSequentialGap(t *testing.T) {
	// The core premise of the paper: random small I/O on HDD is orders of
	// magnitude slower than sequential. Verify via accumulated BusyTime.
	seq := fastHDD()
	defer seq.Close()
	rnd := fastHDD()
	defer rnd.Close()
	buf := make([]byte, 4*util.KiB)
	r := util.NewRand(5)
	const ops = 50
	var off int64
	for i := 0; i < ops; i++ {
		if err := seq.WriteAt(buf, off); err != nil {
			t.Fatal(err)
		}
		off += int64(len(buf))
		if err := rnd.WriteAt(buf, util.AlignDown(r.Int63n(200*util.MiB), 512)); err != nil {
			t.Fatal(err)
		}
	}
	seqBusy := seq.Stats().BusyTime
	rndBusy := rnd.Stats().BusyTime
	if rndBusy < 20*seqBusy {
		t.Errorf("random/sequential busy ratio = %.1f, want > 20 (seq=%v rnd=%v)",
			float64(rndBusy)/float64(seqBusy), seqBusy, rndBusy)
	}
}

func TestHDDElevatorOrdersServicing(t *testing.T) {
	// Load many random requests concurrently; the elevator should service
	// them with far fewer long seeks than arrival order would.
	m := testHDD()
	d := NewHDD(m, clock.Realtime)
	defer d.Close()

	// Saturate the queue.
	var wg sync.WaitGroup
	r := util.NewRand(6)
	offs := make([]int64, 64)
	for i := range offs {
		offs[i] = util.AlignDown(r.Int63n(200*util.MiB), 512)
	}
	for _, off := range offs {
		wg.Add(1)
		go func(off int64) {
			defer wg.Done()
			buf := make([]byte, 512)
			if err := d.WriteAt(buf, off); err != nil {
				t.Error(err)
			}
		}(off)
	}
	wg.Wait()
	if n := d.QueueDepth(); n != 0 {
		t.Errorf("queue depth after completion = %d", n)
	}
}

func TestHDDCloseDrainsPending(t *testing.T) {
	d := fastHDD()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- d.WriteAt(make([]byte, 512), int64(i)*util.MiB)
		}(i)
	}
	time.Sleep(time.Millisecond)
	d.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil && !errors.Is(err, util.ErrClosed) {
			t.Errorf("unexpected error: %v", err)
		}
	}
	if err := d.WriteAt(make([]byte, 512), 0); !errors.Is(err, util.ErrClosed) {
		t.Errorf("write after close: %v", err)
	}
}

func TestDiskBoundsErrors(t *testing.T) {
	ssd := fastSSD()
	defer ssd.Close()
	hdd := fastHDD()
	defer hdd.Close()
	for _, d := range []Disk{ssd, hdd} {
		if err := d.WriteAt(make([]byte, 4096), d.Size()-100); !errors.Is(err, util.ErrOutOfRange) {
			t.Errorf("%T write past end: %v", d, err)
		}
	}
}

func TestSSDPropertyRoundTrip(t *testing.T) {
	d := fastSSD()
	defer d.Close()
	f := func(seed uint64, offRaw uint32, sz uint16) bool {
		off := int64(offRaw) % (60 * util.MiB)
		n := int(sz)%8192 + 1
		data := make([]byte, n)
		util.NewRand(seed).Fill(data)
		if err := d.WriteAt(data, off); err != nil {
			return false
		}
		got := make([]byte, n)
		if err := d.ReadAt(got, off); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHDDThroughputNearMediaRate(t *testing.T) {
	// Sequential streaming should achieve near the configured bandwidth in
	// model time (BusyTime ≈ bytes/bandwidth).
	m := testHDD()
	d := NewHDD(m, clock.Realtime)
	defer d.Close()
	buf := make([]byte, util.MiB)
	total := 32 * util.MiB
	var off int64
	for off = 0; off < int64(total); off += int64(len(buf)) {
		if err := d.WriteAt(buf, off); err != nil {
			t.Fatal(err)
		}
	}
	busy := d.Stats().BusyTime.Seconds()
	rate := float64(total) / busy
	if rate < 0.7*m.Bandwidth || rate > 1.3*m.Bandwidth {
		t.Errorf("sequential model rate = %.0f MB/s, want ≈%.0f",
			rate/1e6, m.Bandwidth/1e6)
	}
}

// TestMemStoreDiscardKeepsPartialPages: a discard releases exactly the
// pages wholly inside its range; the pages it covers only partly keep every
// byte, the released ones read back as zeros, and a range reaching outside
// the device is clipped.
func TestMemStoreDiscardKeepsPartialPages(t *testing.T) {
	s := newMemStore(8 * pageSize)
	data := make([]byte, 5*pageSize)
	util.NewRand(31).Fill(data)
	const base = pageSize / 2 // pages 0..5 touched, 0 and 5 only half
	if err := s.writeAt(data, base); err != nil {
		t.Fatal(err)
	}
	if got := s.usedBytes(); got != 6*pageSize {
		t.Fatalf("used before discard = %d", got)
	}

	// [1.25, 4.5) pages: covers pages 2 and 3 wholly, 1 and 4 partly.
	lo, hi := int64(pageSize+pageSize/4), int64(4*pageSize+pageSize/2)
	s.discard(lo, hi-lo)
	if got := s.usedBytes(); got != 4*pageSize {
		t.Errorf("used after discard = %d, want %d", got, 4*pageSize)
	}
	got := make([]byte, len(data))
	if err := s.readAt(got, base); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), data...)
	clearBytes(want[2*pageSize-base : 4*pageSize-base])
	if !bytes.Equal(got, want) {
		t.Error("discard touched bytes outside the whole pages it released")
	}

	// Sub-page and out-of-range discards release nothing and do not panic.
	s.discard(10, pageSize-20)
	s.discard(-pageSize, 100)
	s.discard(7*pageSize+1, 1<<40)
	if got := s.usedBytes(); got != 4*pageSize {
		t.Errorf("used after no-op discards = %d", got)
	}
	// A clipped range still releases the whole pages inside the device.
	s.discard(-5, 5+pageSize)
	if got := s.usedBytes(); got != 3*pageSize {
		t.Errorf("used after clipped discard = %d", got)
	}
}

// TestDiscardedPagesRecycleClean wraps a small region the way a trimmed
// circular journal does — fill, discard, write a little somewhere else — and
// requires that whatever page a first write lands on reads as zeros around
// the bytes written, though it may be a discarded page full of old data.
// (That the cycle stops making pages is gated end to end, as bytes per
// write, by `make perf-smoke`.)
func TestDiscardedPagesRecycleClean(t *testing.T) {
	s := newMemStore(64 * pageSize)
	dirty := bytes.Repeat([]byte{0xAA}, 4*pageSize)
	mark := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	got, zeros := make([]byte, pageSize), make([]byte, pageSize)
	lap := func(i int) {
		base := int64(i%8) * 8 * pageSize
		if err := s.writeAt(dirty, base); err != nil {
			t.Fatal(err)
		}
		s.discard(base, int64(len(dirty)))
		at := base + 4*pageSize + pageSize/2
		if err := s.writeAt(mark, at); err != nil {
			t.Fatal(err)
		}
		if err := s.readAt(got, at-pageSize/2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[pageSize/2:][:len(mark)], mark) {
			t.Fatalf("lap %d: the written bytes read back as %v", i, got[pageSize/2:][:len(mark)])
		}
		copy(got[pageSize/2:], zeros[:len(mark)])
		if !bytes.Equal(got, zeros) {
			t.Fatalf("lap %d: a first-written page is not zero around the write", i)
		}
		s.discard(at-pageSize/2, pageSize)
	}
	for i := 0; i < 16; i++ {
		lap(i)
	}
	if used := s.usedBytes(); used != 0 {
		t.Fatalf("used after the laps = %d", used)
	}
}

// TestDiscardFreesPagesAtNoCost: Discard on both device models releases
// backing pages without touching the op/byte/busy counters, and the helper
// is a no-op on a disk without the extension.
func TestDiscardFreesPagesAtNoCost(t *testing.T) {
	ssd, hdd := fastSSD(), fastHDD()
	defer ssd.Close()
	defer hdd.Close()
	for _, d := range []interface {
		Disk
		UsedBytes() int64
	}{ssd, hdd} {
		data := make([]byte, 4*pageSize)
		util.NewRand(32).Fill(data)
		if err := d.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		before := d.Stats()
		Discard(d, pageSize, 2*pageSize)
		if got := d.UsedBytes(); got != 2*pageSize {
			t.Errorf("%T: used after discard = %d", d, got)
		}
		if after := d.Stats(); after != before {
			t.Errorf("%T: discard moved the counters: %+v -> %+v", d, before, after)
		}
		got := make([]byte, len(data))
		if err := d.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		clearBytes(data[pageSize : 3*pageSize])
		if !bytes.Equal(got, data) {
			t.Errorf("%T: read-back after discard mismatch", d)
		}
	}
	// plainDisk hides the extension: the helper must simply do nothing.
	type plainDisk struct{ Disk }
	Discard(plainDisk{ssd}, 0, 4*pageSize)
	if got := ssd.UsedBytes(); got != 2*pageSize {
		t.Errorf("discard reached through a disk without the extension: used = %d", got)
	}
}
