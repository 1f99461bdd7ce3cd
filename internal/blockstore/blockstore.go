// Package blockstore manages fixed-size data chunks on a single disk.
// Chunks are the unit of replication and placement (64 MB, §2): a primary
// chunk server keeps its chunks on an SSD blockstore, a backup server on an
// HDD blockstore behind a journal.
package blockstore

import (
	"fmt"
	"sort"
	"sync"

	"ursa/internal/simdisk"
	"ursa/internal/util"
)

// ChunkID identifies a chunk globally (vdisk + index packed by the master).
type ChunkID uint64

// String renders the id as vdisk/index for logs.
func (id ChunkID) String() string {
	return fmt.Sprintf("c%d.%d", uint64(id)>>32, uint64(id)&0xffffffff)
}

// MakeChunkID packs a vdisk id and a chunk index into a ChunkID.
func MakeChunkID(vdisk uint32, index uint32) ChunkID {
	return ChunkID(uint64(vdisk)<<32 | uint64(index))
}

// VDisk returns the vdisk component of the id.
func (id ChunkID) VDisk() uint32 { return uint32(uint64(id) >> 32) }

// Index returns the chunk-index component of the id.
func (id ChunkID) Index() uint32 { return uint32(uint64(id)) }

// Store places chunks at sector-aligned slots on one disk and routes
// chunk-relative I/O to them. Slots default to full chunks (64 MB) but may
// be smaller: an RS segment holder stores only its ChunkSize/N slice of
// each chunk. It is safe for concurrent use; actual I/O parallelism is the
// disk's business.
type Store struct {
	disk simdisk.Disk
	sums *ChecksumStore

	mu    sync.RWMutex
	slots map[ChunkID]slotInfo // chunk -> slot placement
	free  map[int64][]int64    // recycled slot offsets, by slot size
	next  int64                // bump allocator past the last slot
	limit int64                // capacity reserved for chunk slots
	used  int64                // bytes currently held by live slots
}

// slotInfo records where a chunk's slot lives and how large it is.
type slotInfo struct {
	off  int64
	size int64
}

// New returns a store using up to limit bytes of disk (0 means the whole
// disk).
func New(disk simdisk.Disk, limit int64) *Store {
	if limit <= 0 || limit > disk.Size() {
		limit = disk.Size()
	}
	return &Store{
		disk:  disk,
		sums:  newChecksumStore(),
		slots: make(map[ChunkID]slotInfo),
		free:  make(map[int64][]int64),
		limit: util.AlignDown(limit, util.ChunkSize),
	}
}

// Sums exposes the store's per-sector checksum table. Writers stamp it
// after the device acks; readers verify against it before returning data.
func (s *Store) Sums() *ChecksumStore { return s.sums }

// Create allocates a full-chunk slot for id. The chunk reads as zeros
// until written.
func (s *Store) Create(id ChunkID) error {
	return s.CreateSized(id, util.ChunkSize)
}

// CreateSized allocates a slot of the given size (a sector multiple no
// larger than a chunk) for id. Freed slots are recycled per size class, so
// a store holding a mix of full chunks and segments never fragments across
// classes.
func (s *Store) CreateSized(id ChunkID, size int64) error {
	if size <= 0 || size > util.ChunkSize || size%util.SectorSize != 0 {
		return fmt.Errorf("blockstore: chunk %v slot size %d: %w", id, size, util.ErrOutOfRange)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.slots[id]; ok {
		return fmt.Errorf("blockstore: chunk %v: %w", id, util.ErrExists)
	}
	var off int64
	if fl := s.free[size]; len(fl) > 0 {
		off = fl[len(fl)-1]
		s.free[size] = fl[:len(fl)-1]
	} else {
		if s.next+size > s.limit {
			return fmt.Errorf("blockstore: disk full creating %v: %w", id, util.ErrQuota)
		}
		off = s.next
		s.next += size
	}
	s.slots[id] = slotInfo{off: off, size: size}
	s.used += size
	s.sums.create(id)
	return nil
}

// Delete releases the chunk's slot. Deleting a missing chunk is an error.
func (s *Store) Delete(id ChunkID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sl, ok := s.slots[id]
	if !ok {
		return fmt.Errorf("blockstore: chunk %v: %w", id, util.ErrNotFound)
	}
	delete(s.slots, id)
	s.free[sl.size] = append(s.free[sl.size], sl.off)
	s.used -= sl.size
	s.sums.drop(id)
	return nil
}

// Has reports whether the chunk exists.
func (s *Store) Has(id ChunkID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.slots[id]
	return ok
}

// Chunks returns all chunk ids, sorted, for recovery enumeration.
func (s *Store) Chunks() []ChunkID {
	s.mu.RLock()
	ids := make([]ChunkID, 0, len(s.slots))
	for id := range s.slots {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// locate validates the range against the chunk's slot size and returns the
// slot's base offset.
func (s *Store) locate(id ChunkID, off int64, n int) (int64, error) {
	s.mu.RLock()
	sl, ok := s.slots[id]
	s.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("blockstore: chunk %v: %w", id, util.ErrNotFound)
	}
	if off < 0 || off+int64(n) > sl.size {
		return 0, fmt.Errorf("blockstore: chunk %v [%d,%d) of %d: %w",
			id, off, off+int64(n), sl.size, util.ErrOutOfRange)
	}
	return sl.off, nil
}

// SlotOffset returns the disk offset of the chunk's slot, or 0 when the
// chunk is absent. The journal replayer orders its sink writes by it so a
// replay window sweeps the disk in one direction.
func (s *Store) SlotOffset(id ChunkID) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.slots[id].off
}

// SlotSize returns the chunk's slot size, or 0 when the chunk is absent.
func (s *Store) SlotSize(id ChunkID) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.slots[id].size
}

// Capacity returns the bytes the store may give to slots — its limit. A
// chunk server registers it with the master, whose placement refuses a
// vdisk the servers of a class cannot hold.
func (s *Store) Capacity() int64 { return s.limit }

// UsedBytes returns the bytes held by live slots — the store's physical
// footprint, which the erasure-coding bench compares against logical bytes.
func (s *Store) UsedBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.used
}

// ReadAt reads len(p) bytes at chunk-relative offset off.
func (s *Store) ReadAt(id ChunkID, p []byte, off int64) error {
	base, err := s.locate(id, off, len(p))
	if err != nil {
		return err
	}
	return s.disk.ReadAt(p, base+off)
}

// WriteAt writes p at chunk-relative offset off.
func (s *Store) WriteAt(id ChunkID, p []byte, off int64) error {
	base, err := s.locate(id, off, len(p))
	if err != nil {
		return err
	}
	return s.disk.WriteAt(p, base+off)
}

// Disk exposes the underlying device (journal replayers check its queue
// depth; stats collectors read its counters).
func (s *Store) Disk() simdisk.Disk { return s.disk }

// Len returns the number of chunks resident.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.slots)
}
