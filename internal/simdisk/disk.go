package simdisk

import (
	"sync/atomic"
	"time"
)

// Disk is the device abstraction every URSA storage component builds on.
// Reads and writes are synchronous; parallelism comes from issuing them
// from multiple goroutines (the simulated equivalent of libaio queue depth).
type Disk interface {
	// ReadAt reads len(p) bytes at byte offset off.
	ReadAt(p []byte, off int64) error
	// WriteAt writes p at byte offset off.
	WriteAt(p []byte, off int64) error
	// Size returns the device capacity in bytes.
	Size() int64
	// QueueDepth returns the number of in-flight plus queued requests;
	// the HDD journal replayer uses it to detect an idle disk.
	QueueDepth() int
	// Stats returns a snapshot of operation counters.
	Stats() Stats
	// Close releases the device. Further I/O fails.
	Close() error
}

// Discarder is the optional trim extension of Disk: Discard tells the
// device that [off, off+n) holds nothing its owner will read again, so the
// backing pages wholly inside the range can be released (the TRIM of a
// real SSD). It is advisory and page-granular — bytes of a page the range
// covers only partly stay as they are, released pages read back as zeros —
// costs no service time, and is not counted in Stats. The journal
// replayer calls it on reclaimed journal space; without it a circular
// journal pins every page it ever touched.
type Discarder interface {
	Discard(off, n int64)
}

// DiscardGranule is the alignment, in device bytes, at which Discard
// releases space: a caller reclaiming a region piecemeal must start each
// call at a granule boundary (or re-cover the tail of the previous call)
// for the page both calls share to be released.
const DiscardGranule = pageSize

// Discard trims [off, off+n) through d's Discarder when it has one; for a
// device without it the call is a no-op.
func Discard(d Disk, off, n int64) {
	if dd, ok := d.(Discarder); ok {
		dd.Discard(off, n)
	}
}

// Stats counts completed operations and simulated mechanical work.
type Stats struct {
	Reads      int64
	Writes     int64
	BytesRead  int64
	BytesWrite int64
	Seeks      int64         // HDD only: non-sequential head movements
	BusyTime   time.Duration // total device service time accumulated
}

// stats is the atomic backing for Stats snapshots.
type stats struct {
	reads      atomic.Int64
	writes     atomic.Int64
	bytesRead  atomic.Int64
	bytesWrite atomic.Int64
	seeks      atomic.Int64
	busyNanos  atomic.Int64
}

func (s *stats) snapshot() Stats {
	return Stats{
		Reads:      s.reads.Load(),
		Writes:     s.writes.Load(),
		BytesRead:  s.bytesRead.Load(),
		BytesWrite: s.bytesWrite.Load(),
		Seeks:      s.seeks.Load(),
		BusyTime:   time.Duration(s.busyNanos.Load()),
	}
}

func (s *stats) record(write bool, n int, service time.Duration) {
	if write {
		s.writes.Add(1)
		s.bytesWrite.Add(int64(n))
	} else {
		s.reads.Add(1)
		s.bytesRead.Add(int64(n))
	}
	s.busyNanos.Add(int64(service))
}
