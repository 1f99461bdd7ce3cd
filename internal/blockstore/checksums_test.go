package blockstore

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"ursa/internal/clock"
	"ursa/internal/simdisk"
	"ursa/internal/util"
)

func sumsStore(t *testing.T) *Store {
	t.Helper()
	m := simdisk.DefaultSSD()
	m.Capacity = 256 * util.MiB
	d := simdisk.NewSSD(m, clock.TestClock())
	t.Cleanup(func() { d.Close() })
	return New(d, 0)
}

func TestChecksumFreshChunkVerifiesAsZeros(t *testing.T) {
	s := sumsStore(t)
	id := MakeChunkID(1, 0)
	if err := s.Create(id); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4*util.KiB)
	if err := s.ReadAt(id, buf, 8192); err != nil {
		t.Fatal(err)
	}
	if err := s.Sums().Verify(id, 8192, buf); err != nil {
		t.Errorf("fresh chunk must verify as zeros: %v", err)
	}
	// Non-zero data against an unstamped sector is a mismatch.
	buf[0] = 1
	err := s.Sums().Verify(id, 8192, buf)
	if !errors.Is(err, util.ErrCorrupt) {
		t.Errorf("tampered zeros: err = %v, want ErrCorrupt", err)
	}
}

func TestChecksumStampVerifyRoundTrip(t *testing.T) {
	s := sumsStore(t)
	id := MakeChunkID(2, 5)
	if err := s.Create(id); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 8*util.KiB)
	util.NewRand(31).Fill(data)
	if err := s.WriteAt(id, data, 64*util.KiB); err != nil {
		t.Fatal(err)
	}
	s.Sums().Stamp(id, 64*util.KiB, data)

	got := make([]byte, len(data))
	if err := s.ReadAt(id, got, 64*util.KiB); err != nil {
		t.Fatal(err)
	}
	if err := s.Sums().Verify(id, 64*util.KiB, got); err != nil {
		t.Errorf("round trip: %v", err)
	}
	// Adjacent unwritten sectors still verify as zeros.
	zero := make([]byte, util.SectorSize)
	if err := s.Sums().Verify(id, 64*util.KiB+int64(len(data)), zero); err != nil {
		t.Errorf("neighbor sector: %v", err)
	}
	// A single flipped byte is caught.
	got[777] ^= 0x01
	if err := s.Sums().Verify(id, 64*util.KiB, got); !errors.Is(err, util.ErrCorrupt) {
		t.Errorf("flipped byte: err = %v, want ErrCorrupt", err)
	}
}

// TestChecksumLargeRangeBatches: a range above the 32 KiB scratch is walked
// in batches on the stack — every sector of it stamped, a flip in any batch
// caught at its own sector number, the sectors around it untouched, and no
// allocation however large the range.
func TestChecksumLargeRangeBatches(t *testing.T) {
	s := sumsStore(t)
	id := MakeChunkID(2, 6)
	if err := s.Create(id); err != nil {
		t.Fatal(err)
	}
	const off = 1*util.MiB + 4*util.KiB
	data := make([]byte, 128*util.KiB+util.SectorSize) // four full batches and a one-sector tail
	util.NewRand(32).Fill(data)
	sums := s.Sums()
	sums.Stamp(id, off, data)
	if err := sums.Verify(id, off, data); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	for _, sector := range []int{0, scratchSectors - 1, scratchSectors, 3*scratchSectors + 7, len(data)/util.SectorSize - 1} {
		data[sector*util.SectorSize+9] ^= 0x10
		err := sums.Verify(id, off, data)
		if want, _ := sums.Sum(id, off/util.SectorSize+int64(sector)); !errors.Is(err, util.ErrCorrupt) ||
			!strings.Contains(err.Error(), fmt.Sprintf("sector %d:", off/util.SectorSize+int64(sector))) {
			t.Errorf("flip in sector %d (sum %08x): err = %v", sector, want, err)
		}
		data[sector*util.SectorSize+9] ^= 0x10
	}
	zero := make([]byte, util.SectorSize)
	for _, at := range []int64{off - util.SectorSize, off + int64(len(data))} {
		if err := sums.Verify(id, at, zero); err != nil {
			t.Errorf("neighbour sector at %d: %v", at, err)
		}
	}
	if n := testing.AllocsPerRun(20, func() {
		sums.Stamp(id, off, data)
		if err := sums.Verify(id, off, data); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("128 KiB stamp+verify: %v allocs, want 0", n)
	}
}

func TestChecksumDropOnDelete(t *testing.T) {
	s := sumsStore(t)
	id := MakeChunkID(3, 1)
	if err := s.Create(id); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, util.SectorSize)
	util.NewRand(32).Fill(data)
	s.Sums().Stamp(id, 0, data)
	if _, ok := s.Sums().Sum(id, 0); !ok {
		t.Fatal("stamped sum missing")
	}
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Sums().Sum(id, 0); ok {
		t.Error("sums survived delete")
	}
	// Verify on a missing chunk is vacuous, and stamping it is a no-op.
	if err := s.Sums().Verify(id, 0, data); err != nil {
		t.Errorf("verify after delete: %v", err)
	}
	s.Sums().Stamp(id, 0, data)
	if _, ok := s.Sums().Sum(id, 0); ok {
		t.Error("stamp resurrected a deleted chunk")
	}
	// Recreation starts over from the all-zero fingerprint.
	if err := s.Create(id); err != nil {
		t.Fatal(err)
	}
	if sum, ok := s.Sums().Sum(id, 0); !ok || sum != util.Checksum(make([]byte, util.SectorSize)) {
		t.Errorf("recreated chunk sum = %08x ok=%v, want zero-sector CRC", sum, ok)
	}
}

// TestChecksumConcurrentStampVerify races disjoint stamps against verifies
// of already-stamped sectors; run under -race this pins down the locking.
func TestChecksumConcurrentStampVerify(t *testing.T) {
	s := sumsStore(t)
	id := MakeChunkID(4, 0)
	if err := s.Create(id); err != nil {
		t.Fatal(err)
	}
	base := make([]byte, util.SectorSize)
	util.NewRand(33).Fill(base)
	s.Sums().Stamp(id, 0, base)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			data := make([]byte, util.SectorSize)
			util.NewRand(uint64(40 + w)).Fill(data)
			off := int64(w+1) * 4 * util.KiB
			for i := 0; i < 200; i++ {
				s.Sums().Stamp(id, off, data)
				if err := s.Sums().Verify(id, off, data); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := s.Sums().Verify(id, 0, base); err != nil {
				t.Errorf("reader: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}
