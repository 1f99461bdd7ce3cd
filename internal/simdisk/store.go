// Package simdisk simulates SSDs and HDDs with calibrated service-time
// models over an in-memory sparse sector store.
//
// The paper's hybrid design exists because of two *relative* device
// properties: SSDs have deep internal parallelism and flat random access
// latency, while HDDs have a single mechanical head whose seek+rotation
// dominates random small I/O but which streams sequential data well. Both
// models reproduce exactly those properties:
//
//   - SSD: N independent service slots; each op costs a fixed access
//     latency plus size/bandwidth. Random ≈ sequential.
//   - HDD: one service loop with a head position, an elevator (SCAN)
//     scheduler, seek distance + rotational delay + transfer costs, and a
//     fast path for sequential access at the current head position.
//
// All data lives in a sparse page map, so a "400 GB SSD" costs only the
// pages actually written.
package simdisk

import (
	"fmt"
	"sync"

	"ursa/internal/util"
)

// pageSize is the allocation granularity of the sparse store.
const pageSize = 64 * util.KiB

// pagePool recycles the pages discard releases into the next first writes:
// a trimmed circular journal frees and re-makes every page as it wraps, so
// page churn would otherwise be most of the bytes a small write allocates.
// The collector empties it, so idle pages never count as live heap. Pages
// are pooled dirty and cleared on reuse.
var pagePool sync.Pool

// newPage returns a zeroed page.
func newPage() []byte {
	if p, ok := pagePool.Get().(*[pageSize]byte); ok {
		clearBytes(p[:])
		return p[:]
	}
	return make([]byte, pageSize)
}

// memStore is a sparse byte store: unwritten regions read as zeros.
type memStore struct {
	mu    sync.RWMutex
	size  int64
	pages map[int64][]byte // page index -> page data
}

func newMemStore(size int64) *memStore {
	return &memStore{size: size, pages: make(map[int64][]byte)}
}

func (s *memStore) check(off int64, n int) error {
	if off < 0 || off+int64(n) > s.size {
		return fmt.Errorf("simdisk: [%d,%d) outside device of %d bytes: %w",
			off, off+int64(n), s.size, util.ErrOutOfRange)
	}
	return nil
}

// readAt copies stored bytes into p; holes read as zeros.
func (s *memStore) readAt(p []byte, off int64) error {
	if err := s.check(off, len(p)); err != nil {
		return err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for done := 0; done < len(p); {
		pageIdx := (off + int64(done)) / pageSize
		pageOff := (off + int64(done)) % pageSize
		n := pageSize - int(pageOff)
		if n > len(p)-done {
			n = len(p) - done
		}
		if page, ok := s.pages[pageIdx]; ok {
			copy(p[done:done+n], page[pageOff:])
		} else {
			clearBytes(p[done : done+n])
		}
		done += n
	}
	return nil
}

// writeAt stores p at off, allocating pages as needed.
func (s *memStore) writeAt(p []byte, off int64) error {
	if err := s.check(off, len(p)); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writeLocked(p, off)
	return nil
}

func (s *memStore) writeLocked(p []byte, off int64) {
	for done := 0; done < len(p); {
		pageIdx := (off + int64(done)) / pageSize
		pageOff := (off + int64(done)) % pageSize
		n := pageSize - int(pageOff)
		if n > len(p)-done {
			n = len(p) - done
		}
		page, ok := s.pages[pageIdx]
		if !ok {
			page = newPage()
			s.pages[pageIdx] = page
		}
		copy(page[pageOff:], p[done:done+n])
		done += n
	}
}

// discard releases the pages wholly inside [off, off+n); pages the range
// covers only partly are kept, and a range reaching outside the device is
// clipped. Released pages read back as zeros, like any unwritten region.
func (s *memStore) discard(off, n int64) {
	lo, hi := max(off, 0), min(off+n, s.size)
	first := (lo + pageSize - 1) / pageSize
	last := hi / pageSize // exclusive
	if first >= last {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for p := first; p < last; p++ {
		if page, ok := s.pages[p]; ok {
			delete(s.pages, p)
			pagePool.Put((*[pageSize]byte)(page))
		}
	}
}

// usedBytes reports allocated (written) capacity, for tests.
func (s *memStore) usedBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int64(len(s.pages)) * pageSize
}

func clearBytes(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
