package blockstore

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"ursa/internal/clock"
	"ursa/internal/util"
)

func TestChecksumFreshChunkVerifiesAsZeros(t *testing.T) {
	clock.Test(t, func() {
		s := newStore(256 * util.MiB)
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
	})
}

func TestChecksumStampVerifyRoundTrip(t *testing.T) {
	clock.Test(t, func() {
		s := newStore(256 * util.MiB)
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
	})
}

// TestChecksumLargeRangeBatches: a range above the 32 KiB scratch is walked
// in batches on the stack — every sector of it stamped, a flip in any batch
// caught at its own sector number, the sectors around it untouched, and no
// allocation however large the range.
func TestChecksumLargeRangeBatches(t *testing.T) {
	clock.Test(t, func() {
		s := newStore(256 * util.MiB)
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
	})
}

func TestChecksumDropOnDelete(t *testing.T) {
	clock.Test(t, func() {
		s := newStore(256 * util.MiB)
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
	})
}

// TestChecksumConcurrentStampVerify races disjoint stamps against verifies
// of already-stamped sectors; run under -race this pins down the locking.
func TestChecksumConcurrentStampVerify(t *testing.T) {
	clock.Test(t, func() {
		s := newStore(256 * util.MiB)
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
	})
}

// flatSums is the checksum table as it was before it became a table of
// leaves: one flat array per chunk, nil while nothing is stamped. It is the
// reference model the leaf table is fuzzed against.
type flatSums map[ChunkID][]uint32

func (f flatSums) stamp(id ChunkID, off int64, data []byte) {
	arr, ok := f[id]
	if !ok {
		return
	}
	if arr == nil {
		arr = make([]uint32, chunkSectors)
		for i := range arr {
			arr[i] = zeroSectorCRC
		}
		f[id] = arr
	}
	for i := 0; i < len(data)/util.SectorSize; i++ {
		arr[off/util.SectorSize+int64(i)] = util.Checksum(data[i*util.SectorSize:][:util.SectorSize])
	}
}

func (f flatSums) sum(id ChunkID, sector int64) (uint32, bool) {
	arr, ok := f[id]
	if !ok {
		return 0, false
	}
	if arr == nil {
		return zeroSectorCRC, true
	}
	return arr[sector], true
}

// firstBad is the sector Verify must name: the first whose data does not
// match the recorded sum (-1: none, or the chunk is unknown).
func (f flatSums) firstBad(id ChunkID, off int64, data []byte) int64 {
	if _, ok := f[id]; !ok {
		return -1
	}
	for i := 0; i < len(data)/util.SectorSize; i++ {
		s := off/util.SectorSize + int64(i)
		if want, _ := f.sum(id, s); want != util.Checksum(data[i*util.SectorSize:][:util.SectorSize]) {
			return s
		}
	}
	return -1
}

// TestChecksumLeafTableMatchesFlatArray fuzzes the leaf table against the
// flat array it replaced: random Stamp/Verify/Sum/drop/re-create over three
// chunks, with ranges placed to straddle a leaf boundary inside one 32 KiB
// batch, ranges above 32 KiB, and the chunk's last sector; Verify of
// never-stamped space passes for zeros and fails, at the right sector, for
// anything else.
func TestChecksumLeafTableMatchesFlatArray(t *testing.T) {
	clock.Test(t, func() {
		const leafBytes = leafSectors * util.SectorSize
		c, ref := newChecksumStore(), flatSums{}
		ids := []ChunkID{MakeChunkID(7, 0), MakeChunkID(7, 1), MakeChunkID(8, 0)}
		rng := util.NewRand(22)
		buf := make([]byte, 160*util.KiB)

		// pick returns a sector-aligned range: half the time hugging a leaf
		// boundary or the end of the chunk, otherwise anywhere.
		pick := func() (off int64, n int) {
			n = (1 + rng.Intn(96)) * util.SectorSize // up to 48 KiB: one or two batches
			if rng.Intn(8) == 0 {
				n = (1 + rng.Intn(len(buf)/util.SectorSize)) * util.SectorSize // up to 160 KiB
			}
			switch rng.Intn(4) {
			case 0: // straddle (or abut) a leaf boundary
				edge := int64(1+rng.Intn(chunkSectors/leafSectors-1)) * leafBytes
				off = edge - int64(rng.Intn(n/util.SectorSize+1))*util.SectorSize
			case 1: // end at the chunk's last sector
				off = util.ChunkSize - int64(n)
			default:
				off = rng.Int63n((util.ChunkSize-int64(n))/util.SectorSize+1) * util.SectorSize
			}
			return off, n
		}

		for step := 0; step < 6000; step++ {
			id := ids[rng.Intn(len(ids))]
			switch op := rng.Intn(20); {
			case op == 0:
				c.drop(id)
				delete(ref, id)
			case op <= 2:
				c.create(id) // a no-op on a chunk that exists, as before
				if _, ok := ref[id]; !ok {
					ref[id] = nil
				}
			case op <= 9:
				off, n := pick()
				data := buf[:n]
				rng.Fill(data)
				if rng.Intn(4) == 0 {
					clear(data[:util.SectorSize*(1+rng.Intn(n/util.SectorSize))]) // zeros are data too
				}
				c.Stamp(id, off, data)
				ref.stamp(id, off, data)
				if err := c.Verify(id, off, data); err != nil {
					t.Fatalf("step %d: verify of a fresh stamp at %d+%d: %v", step, off, n, err)
				}
			case op <= 15:
				off, n := pick()
				data := buf[:n]
				clear(data) // passes exactly where nothing non-zero was stamped
				if rng.Intn(3) == 0 {
					data[rng.Intn(n)] = 0xA5
				}
				err, bad := c.Verify(id, off, data), ref.firstBad(id, off, data)
				switch {
				case bad < 0 && err != nil:
					t.Fatalf("step %d: verify %d+%d: %v, flat array passes", step, off, n, err)
				case bad >= 0 && (!errors.Is(err, util.ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("sector %d:", bad))):
					t.Fatalf("step %d: verify %d+%d: %v, flat array fails at sector %d", step, off, n, err, bad)
				}
			default:
				sector := int64(rng.Intn(chunkSectors))
				if rng.Intn(4) == 0 {
					sector = int64(rng.Intn(chunkSectors/leafSectors))*leafSectors + int64(rng.Intn(2)*(leafSectors-1))
				}
				got, gotOK := c.Sum(id, sector)
				want, wantOK := ref.sum(id, sector)
				if got != want || gotOK != wantOK {
					t.Fatalf("step %d: Sum(%v, %d) = %08x, %v; flat array %08x, %v", step, id, sector, got, gotOK, want, wantOK)
				}
			}
		}

		// Whole-table equality at the end, and the point of the exercise: a chunk
		// holds leaves only where it was stamped.
		for _, id := range ids {
			for s := int64(0); s < chunkSectors; s++ {
				got, gotOK := c.Sum(id, s)
				if want, wantOK := ref.sum(id, s); got != want || gotOK != wantOK {
					t.Fatalf("final: Sum(%v, %d) = %08x, %v; flat array %08x, %v", id, s, got, gotOK, want, wantOK)
				}
			}
		}
		fresh := MakeChunkID(9, 9)
		c.create(fresh)
		if tab := c.shard(fresh).sums[fresh]; tab != nil {
			t.Fatal("a chunk nothing has stamped holds a table")
		}
		rng.Fill(buf[:util.SectorSize])
		c.Stamp(fresh, util.ChunkSize-util.SectorSize, buf[:util.SectorSize])
		tab := c.shard(fresh).sums[fresh]
		for i, leaf := range tab {
			if (leaf != nil) != (i == len(tab)-1) {
				t.Fatalf("one stamp in the last region: leaf %d present = %v", i, leaf != nil)
			}
		}
	})
}

// TestChecksumTouchedRegionAllocatesNothing: once a region's leaf exists,
// stamping and verifying it — across the leaf boundary too — allocate nothing.
func TestChecksumTouchedRegionAllocatesNothing(t *testing.T) {
	clock.Test(t, func() {
		c := newChecksumStore()
		id := MakeChunkID(5, 5)
		c.create(id)
		data := make([]byte, 128*util.KiB)
		util.NewRand(5).Fill(data)
		off := int64(leafSectors*util.SectorSize - 48*util.KiB) // crosses into the second leaf mid-batch
		c.Stamp(id, off, data)
		if n := testing.AllocsPerRun(50, func() {
			c.Stamp(id, off, data)
			if err := c.Verify(id, off, data); err != nil {
				t.Fatal(err)
			}
			c.Stamp(id, off+4*util.KiB, data[:4*util.KiB])
			if err := c.Verify(id, off+4*util.KiB, data[:4*util.KiB]); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("stamp+verify on touched leaves: %v allocs, want 0", n)
		}
	})
}
