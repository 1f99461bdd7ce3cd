package journal

import (
	"fmt"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/jindex"
	"ursa/internal/simdisk"
	"ursa/internal/util"
)

// joffRegionBits carves the 34-bit journal-offset space into per-journal
// regions of 2^30 sectors (512 GiB), so an index entry's JOff identifies
// both the journal and the position inside it.
const joffRegionBits = 30

// Journal is one circular append-only log occupying a byte region of a
// disk. It is managed by a Set, which owns locking and the per-chunk
// indexes; Journal itself only tracks space and performs device I/O.
type Journal struct {
	disk simdisk.Disk
	name string
	base int64 // byte offset of the region on the disk
	size int64 // region size in bytes

	joffBase uint64 // first sector of this journal's joff region

	// head/tail are monotonically increasing byte counters; position on
	// disk is counter % size. Guarded by the Set's mutex.
	head, tail int64

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

	// Flush scratch, reused across batches. Only the journal's current
	// batch leader touches these (leadership is exclusive), so no lock
	// guards them: insertScratch/orderScratch accumulate one flush's index
	// inserts.
	insertScratch map[blockstore.ChunkID][]jindex.Extent
	orderScratch  []blockstore.ChunkID

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

// pendingRecord is the in-memory replay queue entry for one record (or a
// wrap pad, which has chunk == padChunk and only consumes space).
type pendingRecord struct {
	chunk    blockstore.ChunkID
	off      int64  // chunk-relative byte offset
	dataLen  int    // payload bytes
	version  uint64 // chunk version of the write
	dataJOff uint64 // first journal sector of the payload
	footer   int64  // total bytes consumed (header+data+pad)
	ready    bool   // payload durable in the journal; index updated
	failed   bool   // device write failed; skip at replay

	// image is the record's device image — header sector, then payload —
	// while it is resident: the very bytes its flush wrote, carved from
	// slab. nil for a record the replayer must read back from the device.
	image []byte
	slab  *slab

	// The commit its appender waits for in the record (Set.Append), all
	// guarded by the Set's mutex: the header's position and the payload's
	// CRC, the payload itself until the flush has written it, the
	// commit-queue timings, and the flush's verdict. lead hands the record's
	// appender the next flush. The appender clears data when it takes the
	// verdict; until then the record is the appender's, not the free list's.
	pos                   int64
	sum                   uint32
	data                  []byte
	enq, claimed, flushed time.Time
	err                   error
	lead                  bool
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

const padChunk = blockstore.ChunkID(^uint64(0))

// newJournal creates a journal over disk[base, base+size) with journal
// region index region (assigning its joff space).
func newJournal(name string, disk simdisk.Disk, base, size int64, region int) *Journal {
	if size%util.SectorSize != 0 || base%util.SectorSize != 0 {
		panic("journal: unaligned region")
	}
	if size > int64(1)<<(joffRegionBits+9) {
		panic("journal: region exceeds joff space")
	}
	return &Journal{
		disk:     disk,
		name:     name,
		base:     base,
		size:     size,
		joffBase: uint64(region) << joffRegionBits,
	}
}

// UsedBytes returns space between tail and head (live + pad).
func (j *Journal) UsedBytes() int64 { return j.head - j.tail }

// Size returns the journal region capacity in bytes.
func (j *Journal) Size() int64 { return j.size }

// Appends returns the number of records appended so far.
func (j *Journal) Appends() int64 { return j.appends }

// Name returns the journal's human-readable name ("ssd0", "hdd").
func (j *Journal) Name() string { return j.name }

// fits reports whether a record of dataLen payload bytes could be reserved
// right now, counting any wrap pad the reservation would insert. Caller
// holds the Set lock.
func (j *Journal) fits(dataLen int) bool {
	need := recordBytes(dataLen)
	if need > j.size {
		return false
	}
	pad := int64(0)
	if diskPos := j.head % j.size; diskPos+need > j.size {
		pad = j.size - diskPos
	}
	return j.head+pad+need-j.tail <= j.size
}

// reserve claims space for a record of dataLen payload bytes, handling
// wrap-around, and returns the byte position (monotonic counter) for the
// header. Returns false if the record does not fit. Caller holds the Set
// lock.
func (j *Journal) reserve(dataLen int) (pos int64, ok bool) {
	need := recordBytes(dataLen)
	if need > j.size {
		return 0, false
	}
	diskPos := j.head % j.size
	pad := int64(0)
	if diskPos+need > j.size {
		// Record would straddle the region end: pad to the wrap point so
		// the payload stays contiguous for reads.
		pad = j.size - diskPos
	}
	if j.head+pad+need-j.tail > j.size {
		return 0, false
	}
	if pad > 0 {
		j.fifo = append(j.fifo, &pendingRecord{chunk: padChunk, footer: pad, ready: true})
		j.head += pad
	}
	pos = j.head
	j.head += need
	return pos, true
}

// dataJOff computes the global journal sector of the payload of a record
// whose header sits at byte position pos.
func (j *Journal) dataJOff(pos int64) uint64 {
	return j.joffBase + uint64((pos%j.size+headerSize)/util.SectorSize)
}

// readAtJOff reads n bytes of payload starting at global journal sector
// joff (which must belong to this journal).
func (j *Journal) readAtJOff(p []byte, joff uint64) error {
	local := int64(joff-j.joffBase) * util.SectorSize
	if local < 0 || local+int64(len(p)) > j.size {
		return fmt.Errorf("journal %s: joff %d out of region: %w",
			j.name, joff, util.ErrOutOfRange)
	}
	return j.disk.ReadAt(p, j.base+local)
}

// pageFloor returns the position of the start of the device trim page
// holding position pos, clamped to the start of pos's lap: j.base is only
// sector-aligned, so trim pages are aligned in device space, not in
// journal space, and a page never spans the wrap.
func (j *Journal) pageFloor(pos int64) int64 {
	dev := j.base + pos%j.size
	return pos - min(dev%simdisk.DiscardGranule, pos%j.size)
}

// discard trims the reclaimed positions [from, to) — monotonic byte
// counters — on the device, split at the wrap. The device releases only
// the pages wholly inside each piece. The caller guarantees that no
// appender can reserve the range meanwhile. Replayer only, outside the Set
// lock.
func (j *Journal) discard(from, to int64) {
	for from < to {
		n := min(to-from, j.size-from%j.size)
		simdisk.Discard(j.disk, j.base+from%j.size, n)
		from += n
	}
}

// owns reports whether a global joff falls in this journal's region.
func (j *Journal) owns(joff uint64) bool {
	return joff>>joffRegionBits == j.joffBase>>joffRegionBits
}
