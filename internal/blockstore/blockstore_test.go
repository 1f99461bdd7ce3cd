package blockstore

import (
	"bytes"
	"errors"
	"testing"

	"ursa/internal/clock"
	"ursa/internal/simdisk"
	"ursa/internal/util"
)

// newStore returns a store on a fresh testSSD; the SSD runs no goroutine,
// so there is nothing to close.
func newStore(capacity int64) *Store { return New(testSSD(capacity), 0) }

// testSSD returns an SSD of capacity bytes on the real clock, its model
// DefaultSSD's a thousand times faster: an op costs the host's sleep floor.
func testSSD(capacity int64) *simdisk.SSD {
	m := simdisk.DefaultSSD()
	m.Capacity = capacity
	m.ReadLatency /= 1000
	m.WriteLatency /= 1000
	m.ReadBandwidth *= 1000
	m.WriteBandwidth *= 1000
	return simdisk.NewSSD(m, clock.Realtime)
}

func TestChunkIDPacking(t *testing.T) {
	clock.Test(t, func() {
		id := MakeChunkID(7, 42)
		if id.VDisk() != 7 || id.Index() != 42 {
			t.Errorf("MakeChunkID round trip: vdisk=%d index=%d", id.VDisk(), id.Index())
		}
		if id.String() != "c7.42" {
			t.Errorf("String = %q", id.String())
		}
	})
}

func TestCreateWriteRead(t *testing.T) {
	clock.Test(t, func() {
		s := newStore(256 * util.MiB)
		id := MakeChunkID(1, 0)
		if err := s.Create(id); err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 8*util.KiB)
		util.NewRand(1).Fill(data)
		if err := s.WriteAt(id, data, 4096); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if err := s.ReadAt(id, got, 4096); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("round trip mismatch")
		}
	})
}

func TestCreateDuplicate(t *testing.T) {
	clock.Test(t, func() {
		s := newStore(256 * util.MiB)
		id := MakeChunkID(1, 0)
		if err := s.Create(id); err != nil {
			t.Fatal(err)
		}
		if err := s.Create(id); !errors.Is(err, util.ErrExists) {
			t.Errorf("duplicate create: %v", err)
		}
	})
}

func TestMissingChunk(t *testing.T) {
	clock.Test(t, func() {
		s := newStore(256 * util.MiB)
		id := MakeChunkID(1, 0)
		buf := make([]byte, 512)
		if err := s.ReadAt(id, buf, 0); !errors.Is(err, util.ErrNotFound) {
			t.Errorf("read missing: %v", err)
		}
		if err := s.WriteAt(id, buf, 0); !errors.Is(err, util.ErrNotFound) {
			t.Errorf("write missing: %v", err)
		}
		if err := s.Delete(id); !errors.Is(err, util.ErrNotFound) {
			t.Errorf("delete missing: %v", err)
		}
	})
}

func TestChunkIsolation(t *testing.T) {
	clock.Test(t, func() {
		s := newStore(256 * util.MiB)
		a, b := MakeChunkID(1, 0), MakeChunkID(1, 1)
		for _, id := range []ChunkID{a, b} {
			if err := s.Create(id); err != nil {
				t.Fatal(err)
			}
		}
		dataA := bytes.Repeat([]byte{0xaa}, 1024)
		dataB := bytes.Repeat([]byte{0xbb}, 1024)
		if err := s.WriteAt(a, dataA, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteAt(b, dataB, 0); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 1024)
		if err := s.ReadAt(a, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, dataA) {
			t.Error("chunk A corrupted by chunk B write")
		}
	})
}

func TestDeleteRecyclesSlot(t *testing.T) {
	clock.Test(t, func() {
		// A store sized for exactly one chunk must allow create-delete-create.
		d := testSSD(util.ChunkSize)
		defer d.Close()
		s := New(d, 0)

		a, b := MakeChunkID(1, 0), MakeChunkID(1, 1)
		if err := s.Create(a); err != nil {
			t.Fatal(err)
		}
		if err := s.Create(b); !errors.Is(err, util.ErrQuota) {
			t.Fatalf("second create on full disk: %v", err)
		}
		if err := s.Delete(a); err != nil {
			t.Fatal(err)
		}
		if err := s.Create(b); err != nil {
			t.Fatalf("create after delete: %v", err)
		}
	})
}

func TestChunkBounds(t *testing.T) {
	clock.Test(t, func() {
		s := newStore(256 * util.MiB)
		id := MakeChunkID(1, 0)
		if err := s.Create(id); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1024)
		if err := s.WriteAt(id, buf, util.ChunkSize-512); !errors.Is(err, util.ErrOutOfRange) {
			t.Errorf("write past chunk end: %v", err)
		}
		if err := s.ReadAt(id, buf, -1); !errors.Is(err, util.ErrOutOfRange) {
			t.Errorf("negative offset: %v", err)
		}
	})
}

func TestChunksEnumeration(t *testing.T) {
	clock.Test(t, func() {
		s := newStore(512 * util.MiB)
		want := []ChunkID{MakeChunkID(2, 1), MakeChunkID(1, 5), MakeChunkID(1, 2)}
		for _, id := range want {
			if err := s.Create(id); err != nil {
				t.Fatal(err)
			}
		}
		got := s.Chunks()
		if len(got) != 3 || s.Len() != 3 {
			t.Fatalf("Chunks = %v", got)
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Error("Chunks not sorted")
			}
		}
		if !s.Has(MakeChunkID(1, 5)) || s.Has(MakeChunkID(9, 9)) {
			t.Error("Has wrong")
		}
	})
}

func TestCreateSizedSlots(t *testing.T) {
	clock.Test(t, func() {
		s := newStore(256 * util.MiB)
		seg := MakeChunkID(1, 0)
		full := MakeChunkID(1, 1)
		segSize := int64(util.ChunkSize / 4)
		if err := s.CreateSized(seg, segSize); err != nil {
			t.Fatal(err)
		}
		if err := s.Create(full); err != nil {
			t.Fatal(err)
		}
		if got := s.SlotSize(seg); got != segSize {
			t.Errorf("segment SlotSize = %d, want %d", got, segSize)
		}
		if got := s.SlotSize(full); got != util.ChunkSize {
			t.Errorf("full SlotSize = %d", got)
		}
		if got := s.UsedBytes(); got != segSize+util.ChunkSize {
			t.Errorf("UsedBytes = %d, want %d", got, segSize+util.ChunkSize)
		}

		// I/O is bounded by the slot size, not the chunk size.
		buf := make([]byte, 1024)
		if err := s.WriteAt(seg, buf, segSize-1024); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteAt(seg, buf, segSize-512); !errors.Is(err, util.ErrOutOfRange) {
			t.Errorf("write past segment slot: %v", err)
		}

		// Freed slots are recycled within their size class.
		if err := s.Delete(seg); err != nil {
			t.Fatal(err)
		}
		if got := s.UsedBytes(); got != util.ChunkSize {
			t.Errorf("UsedBytes after delete = %d", got)
		}
		if err := s.CreateSized(MakeChunkID(2, 0), segSize); err != nil {
			t.Fatal(err)
		}
		if got := s.SlotSize(MakeChunkID(2, 0)); got != segSize {
			t.Errorf("recycled SlotSize = %d", got)
		}

		// Invalid sizes are rejected.
		if err := s.CreateSized(MakeChunkID(3, 0), 777); !errors.Is(err, util.ErrOutOfRange) {
			t.Errorf("unaligned slot size: %v", err)
		}
		if err := s.CreateSized(MakeChunkID(3, 1), util.ChunkSize*2); !errors.Is(err, util.ErrOutOfRange) {
			t.Errorf("oversized slot: %v", err)
		}
	})
}
