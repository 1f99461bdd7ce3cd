// Package journal implements URSA's backup journals (§3.2): append-only
// logs that transform random small backup writes into sequential appends,
// replayed asynchronously into the backup HDD's chunk store. A Set manages
// the journals of one backup server — SSD journals first, expanding
// on demand to co-located SSDs and finally to an HDD journal — and owns the
// per-chunk composite-key indexes (jindex) that map chunk offsets to journal
// offsets: its lock serializes every call on them. Each journal is a
// reclog.Log, which frames its records.
//
// All offsets and lengths are sector-aligned (512 B): URSA is a block
// store, and the virtual-disk interface guarantees sector granularity.
package journal

import (
	"fmt"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/reclog"
	"ursa/internal/simdisk"
	"ursa/internal/util"
)

// joffRegionBits carves the 34-bit journal-offset space into per-journal
// regions of 2^30 sectors (512 GiB), so an index entry's JOff identifies
// both the journal and the position inside it.
const joffRegionBits = 30

// Journal is one circular append-only log occupying a byte region of a
// disk: a reclog.Log, whose framing, wrap and trim it uses. It is managed by
// a Set, which owns locking and the per-chunk indexes.
type Journal struct {
	log  *reclog.Log // its head and tail are guarded by the Set's mutex
	name string

	joffBase uint64 // first sector of this journal's joff region

	// fifo holds unreplayed records in reservation (position) order.
	fifo []*pendingRecord

	// commitq holds the records of appends awaiting a group-commit flush, in
	// reservation order; flushing marks an active batch leader. Both are
	// guarded by the Set's mutex. The invariant flushing==false ⇒ commitq
	// empty holds: a leader only clears flushing after emptying the queue or
	// handing leadership to the new queue head. batch is the other half of
	// the queue's double buffer: the leader moves the records it claims into
	// it and the queue closes up in place, so both keep their capacity. It is
	// the journal's, not the leader's — the next leader reuses it — so a
	// leader is done with it before it drops the lock that ends its flush.
	commitq  []*pendingRecord
	batch    []*pendingRecord
	flushing bool
	queued   int // commit-queue depth incl. the in-flight batch (striping)

	// dead marks a journal whose device write failed: the picker skips it
	// and queued records re-route to surviving journals. A dead journal
	// never comes back (its region's contents are suspect); already-durable
	// records still replay if the device can serve reads. Guarded by the
	// Set's mutex.
	dead bool

	appends        int64 // total records appended (stats)
	bytesAppended  int64
	flushes        int64 // group-commit device write batches
	batchedRecords int64 // records committed across those batches

	// slab is the lease the next resident run is carved from; nil when the
	// journal holds no resident record. Guarded by the Set's mutex.
	slab *slab

	// Replay accounting for the window at the head of the fifo, summed over
	// every attempt at it (a parked or pre-empted window is retried):
	// sectors and coalesced writes that reached the sink. Written only by
	// the replayer.
	sunkSectors int64
	sinkWrites  int64
}

// pendingRecord is the in-memory replay queue entry for one record.
type pendingRecord struct {
	chunk    blockstore.ChunkID
	off      int64  // chunk-relative byte offset
	dataLen  int    // payload bytes
	version  uint64 // chunk version of the write
	dataJOff uint64 // first journal sector of the payload
	footer   int64  // bytes on the device: header and sector-aligned payload
	ready    bool   // payload durable in the journal; index updated
	failed   bool   // device write failed; skip at replay

	// image is the record's device image — header sector, then payload —
	// while it is resident: the very bytes its flush wrote, carved from
	// slab. nil for a record the replayer must read back from the device.
	image []byte
	slab  *slab

	// The commit its appender waits for in the record (Set.Append), all
	// guarded by the Set's mutex: the header's position, the wrap pad before
	// it and the payload's CRC, the payload itself until the flush has
	// written it, the commit-queue timings, and the flush's verdict. lead
	// hands the record's appender the next flush. The appender clears data
	// when it takes the verdict; until then the record is the appender's, not
	// the free list's.
	pos, pad              int64
	sum                   uint32
	data                  []byte
	enq, claimed, flushed time.Time
	err                   error
	lead                  bool
}

// header is rec's record header, as its flush writes it.
func (rec *pendingRecord) header() reclog.Header {
	return reclog.Header{Pos: rec.pos, Pad: rec.pad, Len: rec.dataLen,
		Chunk: uint64(rec.chunk), Off: rec.off, Version: rec.version, Sum: rec.sum}
}

// slab is one pooled lease holding the device images of consecutive records
// of one journal, carved front to back by the journal's flush leaders. It
// goes back to the pool when the last record in it ends its residency.
// Guarded by the Set's mutex.
type slab struct {
	buf  []byte
	used int // bytes carved so far
	recs int // resident records whose image lives in buf
}

// noChunk is the chunk ID no record carries.
const noChunk = blockstore.ChunkID(^uint64(0))

// newJournal creates a journal over disk[base, base+size) with journal
// region index region (assigning its joff space).
func newJournal(name string, disk simdisk.Disk, base, size int64, region int) *Journal {
	if size > int64(1)<<(joffRegionBits+9) {
		panic("journal: region exceeds joff space")
	}
	return &Journal{
		log:      reclog.New(disk, base, size),
		name:     name,
		joffBase: uint64(region) << joffRegionBits,
	}
}

// UsedBytes returns space between tail and head (live + pad).
func (j *Journal) UsedBytes() int64 { return j.log.Used() }

// Size returns the journal region capacity in bytes.
func (j *Journal) Size() int64 { return j.log.Size() }

// Appends returns the number of records appended so far.
func (j *Journal) Appends() int64 { return j.appends }

// Name returns the journal's human-readable name ("ssd0", "hdd").
func (j *Journal) Name() string { return j.name }

// dataJOff computes the global journal sector of the payload of a record
// whose header sits at byte position pos.
func (j *Journal) dataJOff(pos int64) uint64 {
	return j.joffBase + uint64((pos%j.log.Size()+reclog.HeaderSize)/util.SectorSize)
}

// readAtJOff reads len(p) bytes starting at global journal sector joff
// (which must belong to this journal).
func (j *Journal) readAtJOff(p []byte, joff uint64) error {
	return j.log.ReadAt(p, int64(joff-j.joffBase)*util.SectorSize)
}

// owns reports whether a global joff falls in this journal's region.
func (j *Journal) owns(joff uint64) bool {
	return joff>>joffRegionBits == j.joffBase>>joffRegionBits
}

// checkAligned validates sector alignment of a chunk-relative range.
func checkAligned(off int64, n int) error {
	if off%util.SectorSize != 0 || n%util.SectorSize != 0 || n == 0 ||
		off < 0 || off+int64(n) > util.ChunkSize {
		return fmt.Errorf("journal: unaligned or out-of-range [%d,%d): %w",
			off, off+int64(n), util.ErrOutOfRange)
	}
	return nil
}
