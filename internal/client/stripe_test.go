package client

import (
	"testing"
	"testing/quick"

	"ursa/internal/clock"
	"ursa/internal/master"
	"ursa/internal/util"
)

func metaWith(group int, unit int64, size int64) *master.VDiskMeta {
	return &master.VDiskMeta{Size: size, StripeGroup: group, StripeUnit: unit}
}

func TestMapRangeUnstriped(t *testing.T) {
	clock.Test(t, func() {
		meta := metaWith(1, util.ChunkSize, 4*util.ChunkSize)
		// A request inside one chunk is a single fragment.
		frags := mapRange(nil, meta, 512, 4096)
		if len(frags) != 1 || frags[0].chunk != 0 || frags[0].chunkOff != 512 {
			t.Fatalf("frags = %+v", frags)
		}
		// A request crossing a chunk boundary splits in two.
		frags = mapRange(nil, meta, util.ChunkSize-4096, 8192)
		if len(frags) != 2 {
			t.Fatalf("boundary frags = %+v", frags)
		}
		if frags[0].chunk != 0 || frags[1].chunk != 1 || frags[1].chunkOff != 0 {
			t.Fatalf("boundary frags = %+v", frags)
		}
	})
}

func TestMapRangeUnstripedMergesWithinChunk(t *testing.T) {
	clock.Test(t, func() {
		// Even with a small stripe unit, group=1 requests must merge back into
		// one fragment per chunk.
		meta := metaWith(1, 128*util.KiB, 4*util.ChunkSize)
		frags := mapRange(nil, meta, 0, util.MiB)
		if len(frags) != 1 {
			t.Fatalf("group=1 1MB request produced %d fragments", len(frags))
		}
		if frags[0].bufLo != 0 || frags[0].bufHi != util.MiB {
			t.Fatalf("frags = %+v", frags)
		}
	})
}

func TestMapRangeStriping(t *testing.T) {
	clock.Test(t, func() {
		// Group of 4 at 128 KB: a 1 MB write fans out over 4 chunks, two
		// 128 KB pieces each — but pieces in the same chunk are NOT contiguous
		// (that is what striping means), so 8 fragments.
		meta := metaWith(4, 128*util.KiB, 16*util.ChunkSize)
		frags := mapRange(nil, meta, 0, util.MiB)
		if len(frags) != 8 {
			t.Fatalf("striped 1MB request: %d fragments, want 8", len(frags))
		}
		perChunk := map[int]int{}
		for _, f := range frags {
			perChunk[f.chunk]++
		}
		for ch := 0; ch < 4; ch++ {
			if perChunk[ch] != 2 {
				t.Errorf("chunk %d got %d fragments, want 2", ch, perChunk[ch])
			}
		}
		// First stripe unit goes to chunk 0 offset 0; second to chunk 1.
		if frags[0].chunk != 0 || frags[0].chunkOff != 0 {
			t.Errorf("frag0 = %+v", frags[0])
		}
		if frags[1].chunk != 1 || frags[1].chunkOff != 0 {
			t.Errorf("frag1 = %+v", frags[1])
		}
		// Chunk 0's second piece lands at offset 128 KB within the chunk.
		var second *fragment
		for i := range frags[2:] {
			if frags[2+i].chunk == 0 {
				second = &frags[2+i]
				break
			}
		}
		if second == nil || second.chunkOff != 128*util.KiB {
			t.Errorf("chunk0 second piece = %+v", second)
		}
	})
}

func TestMapRangeCoversExactly(t *testing.T) {
	clock.Test(t, func() {
		// Property: fragments tile the request exactly, without overlap, and
		// every (chunk, chunkOff) is hit by exactly one logical offset.
		f := func(group uint8, unitExp uint8, offRaw uint32, lenRaw uint16) bool {
			g := int(group)%8 + 1
			// Stripe units are powers of two that tile the chunk, as the
			// master enforces at creation.
			unit := int64(4*util.KiB) << (unitExp % 7) // 4KiB..256KiB
			meta := metaWith(g, unit, 64*util.ChunkSize)
			off := util.AlignDown(int64(offRaw)%(32*util.ChunkSize), util.SectorSize)
			n := (int(lenRaw)%2048 + 1) * util.SectorSize
			frags := mapRange(nil, meta, off, n)

			covered := 0
			prevHi := 0
			for _, fr := range frags {
				if fr.bufLo != prevHi {
					return false // gap or overlap in buffer coverage
				}
				if fr.bufHi <= fr.bufLo {
					return false
				}
				if fr.chunkOff < 0 || fr.chunkOff+int64(fr.bufHi-fr.bufLo) > util.ChunkSize {
					return false // fragment escapes its chunk
				}
				covered += fr.bufHi - fr.bufLo
				prevHi = fr.bufHi
			}
			return covered == n
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Error(err)
		}
	})
}

func TestMapRangeRoundTripAddressing(t *testing.T) {
	clock.Test(t, func() {
		// Writing the logical offset as data at each mapped location and then
		// reading any sub-range must see consistent addresses: two different
		// logical offsets never map to the same (chunk, chunkOff).
		meta := metaWith(4, 64*util.KiB, 64*util.ChunkSize)
		seen := map[int64]int64{} // chunk*ChunkSize+chunkOff -> logical
		r := util.NewRand(5)
		for i := 0; i < 200; i++ {
			off := util.AlignDown(r.Int63n(16*util.ChunkSize), util.SectorSize)
			n := (r.Intn(512) + 1) * util.SectorSize
			for _, fr := range mapRange(nil, meta, off, int(n)) {
				logical := off + int64(fr.bufLo)
				for b := 0; b < fr.bufHi-fr.bufLo; b += util.SectorSize {
					key := int64(fr.chunk)*util.ChunkSize + fr.chunkOff + int64(b)
					want := logical + int64(b)
					if prev, ok := seen[key]; ok && prev != want {
						t.Fatalf("physical %d maps to logical %d and %d", key, prev, want)
					}
					seen[key] = want
				}
			}
		}
	})
}
