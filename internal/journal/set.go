package journal

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/jindex"
	"ursa/internal/metrics"
	"ursa/internal/opctx"
	"ursa/internal/reclog"
	"ursa/internal/simdisk"
	"ursa/internal/util"
)

// Sink is the replay target: the backup server's HDD chunk store.
type Sink interface {
	WriteAt(id blockstore.ChunkID, p []byte, off int64) error
	ReadAt(id blockstore.ChunkID, p []byte, off int64) error
	Disk() simdisk.Disk
}

// Config wires a journal Set to its observers.
type Config struct {
	// Metrics receives the group-commit distributions (nil: a registry of
	// the set's own):
	// batch sizes ("journal-batch-records"), flush latency
	// ("journal-flush"), and replay window sizes ("journal-replay-window") /
	// coalesced sink writes per window ("journal-replay-writes"). An
	// append's commit-queue wait is its op's backup-jqueue stage.
	Metrics *metrics.Registry
}

// The set's tuning, the same in every deployment.
const (
	// maxBatch caps the records one group-commit leader claims per flush:
	// large enough that a burst at the §3.4 queue depths commits in one
	// sequential write, small enough to bound flush latency.
	maxBatch = 64
	// replayWindowRecords caps the records the replayer drains per pass
	// before reclaiming their journal space (a pass is also bounded by the
	// replayWindowBytes payload budget): as many 4 KiB records as the budget
	// holds, so small-write windows fill it.
	replayWindowRecords = replayWindowBytes / (4 * util.KiB)
	// autoMergeAt is the per-chunk index tree size whose insert merges the
	// tree into the sorted array, on the inserting goroutine under s.mu.
	autoMergeAt = 4096
	// pollInterval is how often the replayer rechecks gated journals (HDD
	// journals waiting for an idle disk, records mid-write, a parked window).
	pollInterval = 10 * time.Millisecond
	// idleGrace is how long the backup disk must stay idle before replay
	// resumes: without it, replay sneaks a slow random write into every gap
	// between foreground appends and throttles them to the HDD's random rate
	// — the exact inversion journals exist to prevent.
	idleGrace = 30 * time.Millisecond
)

// Fault metrics (registered on cfg.Metrics when set).
const (
	// MetricJournalDead counts journals declared dead after a failed flush.
	MetricJournalDead = "journal-dead"
	// MetricBypassWrites counts journal-sized writes that went to the device
	// because no live journal could take them (Append's ErrQuota) — the
	// bottom rung of the §3.2 expansion ladder. The chunk server counts it
	// at its fallback.
	MetricBypassWrites = "journal-bypass-writes"
	// MetricReplayErrors counts replay windows parked because a chunk's
	// records could not reach the sink (sink I/O error or unreadable
	// journal); the records stay queued and replay resumes after heal.
	MetricReplayErrors = "journal-replay-errors"
	// MetricReplayCorrupt counts replay windows parked because a record
	// failed its CRC check when re-read from the journal: bit-rot between
	// append and replay. The record is never applied to the sink —
	// skip-and-park, repair via the OnFault report path.
	MetricReplayCorrupt = "journal-replay-corrupt"
)

// Group-commit and replay distribution names (see Config.Metrics).
const (
	// MetricBatchRecords samples records per group-commit flush.
	MetricBatchRecords = "journal-batch-records"
	// MetricFlushLatency is the claim-to-durable latency of each flush.
	MetricFlushLatency = "journal-flush"
	// MetricReplayWindow samples records replayed per window.
	MetricReplayWindow = "journal-replay-window"
	// MetricReplayWrites samples coalesced sink writes per window.
	MetricReplayWrites = "journal-replay-writes"
	// MetricReplayResidentBytes and MetricReplayDeviceBytes count the payload
	// bytes replay took from the resident image (hits) and had to read back
	// from a journal device (misses), per reclaimed window.
	MetricReplayResidentBytes = "journal-replay-resident-bytes"
	MetricReplayDeviceBytes   = "journal-replay-device-bytes"
)

// errJournalDead marks an append whose journal died before (or while)
// flushing it; Append re-routes such records to a surviving journal.
var errJournalDead = errors.New("journal: journal dead")

// DefaultConfig returns a config whose set records into a registry of its
// own.
func DefaultConfig() Config { return Config{} }

// Set manages the journals of one backup server, in expansion priority
// order: local SSD journals first, then (rarely) an HDD journal (§3.2).
// Appends group-commit: concurrent callers enqueue records on a journal's
// commit queue and the first of them becomes the batch leader, writing the
// whole queue as one contiguous sequential device write and waking every
// waiter with its individual result — at queue depth N the journal device
// sees ~1 write where it used to see N (§3.4's intra-disk parallelism
// recovered on a single-writer log). Journal selection stripes concurrent
// appends across sibling journals by least commit-queue depth (inter-disk
// parallelism) while keeping the SSD-before-HDD expansion order.
//
// A single background replayer drains records oldest-first per journal in
// windows, merging superseded appends away and coalescing adjacent extents
// of one chunk into single large sink writes, exactly one writer at a
// time — the single-threaded elevator-friendly regime the paper prescribes
// for backup HDDs (§5.3).
//
// In steady state the journal devices are write-only: the flush leader
// assembles each run's device image in a pooled slab that stays leased until
// the records in it are reclaimed, and replay drains that resident image of
// the journal tail instead of reading the records back (carveLocked,
// payload). The image is bounded per set; the device copy serves the
// records past the bound, backup reads and crash recovery.
//
// Concurrent appends — to different chunks or to the same chunk — are
// safe; the caller must only order appends whose extents OVERLAP (the
// chunk server's per-chunk write pipeline waits out overlapping pending
// predecessors before appending, and its version protocol keeps the
// version numbers the index carries monotone per extent). An Append
// returns only after its batch's flush and index insert, so
// caller-sequenced overlapping appends are index-ordered too. Same-chunk
// concurrency is what lets one group-commit flush batch a hot chunk's
// burst instead of draining it one record per device write.
type Set struct {
	clk  clock.Clock
	sink Sink
	cfg  Config

	mu        sync.Mutex
	cond      *sync.Cond // replayer wakeup
	drainCond *sync.Cond // Drain() wakeup
	commit    *sync.Cond // a flush ended: its records' verdicts, the next leader
	journals  []*Journal
	idleOnly  []bool // journals[i] replays only when its disk is idle
	indexes   map[blockstore.ChunkID]*jindex.Index
	pending   int // unreplayed (non-pad) records across all journals
	force     int // >0: Drain in progress, ignore idle gating
	lastBusy  time.Time
	started   bool
	closed    bool
	done      chan struct{}

	// chunkLocks serialize replay against journal-bypass direct writes on
	// the same chunk; they are always acquired BEFORE s.mu. Each is a
	// clock.Mutex made with the set, held across a sink write. Striped by
	// chunk ID hash: two chunks sharing a stripe serialize spuriously but
	// harmlessly, and the lookup is a shift instead of a mutex-guarded map
	// that QD32 bypass writes used to contend on.
	chunkLocks [chunkLockStripes]clock.Mutex

	// The fault callback, registered via OnFault (the owning chunk server
	// installs it after Start — hence guarded by mu, read at fire time).
	onReplayError func(id blockstore.ChunkID, err error)

	replayedRecords int64
	replayedBytes   int64
	mergedSectors   int64 // sectors skipped at replay because overwritten
	replayErrors    int64 // parked replay windows (chunk could not reach sink)
	replayCorrupt   int64 // parked replay windows whose record failed CRC verification
	deadJournals    int64

	// reclaims counts replay windows whose journal space has been handed
	// back; a reader of journal space compares it across its unlocked reads
	// (see reclaimWindow).
	reclaims uint64

	// rp is the replayer's owned scratch.
	rp replayScratch

	// freeRecs holds the pendingRecords of reclaimed windows for the next
	// appends, at most maxFreeRecords of them. A record is on it only once
	// reclaimWindow has popped it: nothing else references it then — its
	// appender was done with it when the flush marked it ready or failed,
	// the replayer cleared its window scratch before reclaiming.
	freeRecs []*pendingRecord

	// The resident image of the unreplayed journal tail (see carveLocked):
	// residentBytes is what its slabs lease right now, at most
	// residentBudgetBytes; freeSlabs recycles their descriptors.
	residentBytes int64
	residentPeak  int64
	freeSlabs     []*slab
	fromMemory    int64 // payload bytes replay drained from the resident image
	fromDevice    int64 // payload bytes replay read back from a journal device
}

// maxFreeRecords bounds Set.freeRecs: a few replay windows' worth.
const maxFreeRecords = 4 * replayWindowRecords

// NewSet creates an empty journal set replaying into sink. Call
// AddSSDJournal/AddHDDJournal, then Start.
func NewSet(clk clock.Clock, sink Sink, cfg Config) *Set {
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	s := &Set{
		clk:     clk,
		sink:    sink,
		cfg:     cfg,
		indexes: make(map[blockstore.ChunkID]*jindex.Index),
		done:    make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.drainCond = sync.NewCond(&s.mu)
	s.commit = sync.NewCond(&s.mu)
	for i := range s.chunkLocks {
		s.chunkLocks[i] = clock.NewMutex()
	}
	return s
}

// AddSSDJournal registers a journal region on an SSD; it is replayed
// continuously (SSD parallelism hides the reads, §3.2).
func (s *Set) AddSSDJournal(name string, disk simdisk.Disk, base, size int64) *Journal {
	return s.add(name, disk, base, size, false)
}

// AddHDDJournal registers the overflow journal on an HDD; it is replayed
// only when its disk is idle, since seeks would otherwise fight foreground
// I/O (§3.2).
func (s *Set) AddHDDJournal(name string, disk simdisk.Disk, base, size int64) *Journal {
	return s.add(name, disk, base, size, true)
}

func (s *Set) add(name string, disk simdisk.Disk, base, size int64, idleOnly bool) *Journal {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := newJournal(name, disk, base, size, len(s.journals))
	s.journals = append(s.journals, j)
	s.idleOnly = append(s.idleOnly, idleOnly)
	return j
}

// OnFault registers the set's fault callback: replayError fires when a
// chunk's replay cannot reach the sink and its records are parked. It runs
// outside the set lock but on a set goroutine — it must not block (the
// chunk server's failure report is fire-and-forget). A dead journal is
// counted (Stats, MetricJournalDead), not reported. Safe to call after
// Start: core builds journal sets before chunk servers.
func (s *Set) OnFault(replayError func(id blockstore.ChunkID, err error)) {
	s.mu.Lock()
	s.onReplayError = replayError
	s.mu.Unlock()
}

// Start launches the background replayer.
func (s *Set) Start() {
	s.mu.Lock()
	if s.started || s.closed {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	go s.replayLoop()
}

// Close stops the replayer without draining; pending journal data stays
// unreplayed (recovery would reread it in a restart, which our simulation
// models as replica reallocation instead).
func (s *Set) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	started := s.started
	s.cond.Broadcast()
	s.drainCond.Broadcast()
	s.mu.Unlock()
	if started {
		<-s.done
	}
	// Nothing drains the resident image any more.
	s.mu.Lock()
	s.dropCommittedImagesLocked()
	s.mu.Unlock()
}

// Append journals a backup write: data at chunk-relative byte offset off.
// Concurrent appends group-commit — the caller enqueues on a journal's
// commit queue and either leads the next batch flush or waits for a leader
// to commit it. The record is acked only after the sequential device write
// containing it has completed. A non-nil op gets the commit-queue wait and
// flush time recorded as the backup-jqueue/backup-jflush stages.
//
// It returns ErrQuota when no live journal can take the record — every one
// full or dead. The caller falls back to a direct backup write, the bottom
// rung of the §3.2 expansion ladder (the master should already have
// rate-limited the client before a full set, §3.2). An append routed to a
// journal that dies mid-flush is re-routed to a surviving journal
// transparently.
func (s *Set) Append(op *opctx.Op, id blockstore.ChunkID, off int64, data []byte, version uint64) error {
	if err := checkAligned(off, len(data)); err != nil {
		return err
	}
	// Checksum before taking any lock: it is the CPU-heavy part of the path.
	sum := util.Checksum(data)

	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return util.ErrClosed
		}
		j := s.pickJournalLocked(len(data))
		if j == nil {
			s.mu.Unlock()
			return fmt.Errorf("journal: no live journal has room: %w", util.ErrQuota)
		}
		pos, pad, _ := j.log.Reserve(len(data)) // pickJournalLocked checked it fits
		rec := s.newRecordLocked()
		*rec = pendingRecord{
			chunk:    id,
			off:      off,
			dataLen:  len(data),
			version:  version,
			dataJOff: j.dataJOff(pos),
			footer:   reclog.RecordBytes(len(data)),
			pos:      pos,
			pad:      pad,
			sum:      sum,
			data:     data,
			enq:      s.clk.Now(),
			// The first append to find no flush under way leads the next.
			lead: !j.flushing,
		}
		j.fifo = append(j.fifo, rec)
		s.pending++
		j.commitq = append(j.commitq, rec)
		j.queued++
		j.flushing = true

		// Wait in the record for its flush to decide it — or lead that flush,
		// when the record is the head of the queue as the last one ends.
		for !rec.ready && !rec.failed {
			if rec.lead {
				rec.lead = false
				s.mu.Unlock()
				s.flush(j)
				s.mu.Lock()
				continue
			}
			s.commit.Wait()
		}
		err, queued, flushed := rec.err, rec.claimed.Sub(rec.enq), rec.flushed.Sub(rec.claimed)
		rec.data, rec.err = nil, nil // the record is the set's again
		s.mu.Unlock()
		if op != nil {
			op.ObserveStage(opctx.StageJournalQueue, queued)
			op.ObserveStage(opctx.StageJournalFlush, flushed)
		}
		if errors.Is(err, errJournalDead) {
			// The journal died under us; its picker slot is gone, so the
			// retry lands on a survivor (or finds none: ErrQuota).
			continue
		}
		return err
	}
}

// newRecordLocked returns a zeroed pendingRecord, recycled when one is free.
func (s *Set) newRecordLocked() *pendingRecord {
	if n := len(s.freeRecs); n > 0 {
		rec := s.freeRecs[n-1]
		s.freeRecs[n-1] = nil
		s.freeRecs = s.freeRecs[:n-1]
		return rec
	}
	return new(pendingRecord)
}

// pickJournalLocked selects the journal for a new record: the least
// commit-queue-depth journal with room among the always-replayable (SSD)
// journals, falling back to the idle-only (HDD) overflow journals only
// when every SSD journal is full — least-queue-depth striping for
// inter-disk parallelism (§3.4) under the §3.2 expansion priority.
func (s *Set) pickJournalLocked(dataLen int) *Journal {
	pick := func(idleOnly bool) *Journal {
		var best *Journal
		for i, j := range s.journals {
			if j.dead || s.idleOnly[i] != idleOnly || !j.log.Fits(dataLen) {
				continue
			}
			if best == nil || j.queued < best.queued {
				best = j
			}
		}
		return best
	}
	if j := pick(false); j != nil {
		return j
	}
	return pick(true)
}

// flush runs one group-commit batch on j: claim up to maxBatch queued
// records, write them as contiguous sequential device writes (one per run
// of back-to-back records; wrap pads split runs), publish every record's
// result and index entries, then hand leadership to the next queue head.
// The caller must hold j's leadership (j.flushing).
func (s *Set) flush(j *Journal) {
	s.mu.Lock()
	n := min(len(j.commitq), maxBatch)
	batch := append(j.batch[:0], j.commitq[:n]...)
	j.commitq = slices.Delete(j.commitq, 0, n) // closes up in place, vacated slots cleared
	claimed := s.clk.Now()
	for _, r := range batch {
		r.claimed = claimed
	}
	wasDead := j.dead
	s.mu.Unlock()

	if wasDead {
		// The journal died after these records enqueued: fail them without
		// touching the device so Append re-routes them immediately.
		for _, r := range batch {
			r.err = fmt.Errorf("journal %s: %w", j.name, errJournalDead)
		}
	} else {
		// The commit queue is in reservation order, so positions increase
		// monotonically; a record extends the current run when its header
		// starts exactly where the previous record ended and the run still
		// fits one slab.
		for i := 0; i < len(batch); {
			k := i + 1
			size := batch[i].footer
			for k < len(batch) && batch[k].pos == batch[i].pos+size &&
				size+batch[k].footer <= slabBytes {
				size += batch[k].footer
				k++
			}
			s.writeRun(j, batch[i:k], int(size))
			i = k
		}
	}
	flushed := s.clk.Now()

	s.mu.Lock()
	for _, r := range batch {
		r.flushed = flushed
		j.queued--
		if r.err != nil {
			if !errors.Is(r.err, errJournalDead) {
				// A device write failed: declare the journal dead (once) and
				// convert the error so Append re-routes the record.
				if !j.dead {
					j.dead = true
					s.deadJournals++
					s.cfg.Metrics.Counter(MetricJournalDead).Inc()
				}
				r.err = fmt.Errorf("journal %s: %v: %w", j.name, r.err, errJournalDead)
			}
			r.failed = true
			s.dropImageLocked(j, r)
			continue
		}
		r.ready = true
		if s.closed {
			s.dropImageLocked(j, r) // Close has swept already
		}
		j.appends++
		j.bytesAppended += int64(r.dataLen)
		ix := s.indexLocked(r.chunk)
		ix.Insert(uint32(r.off/util.SectorSize), uint32(int64(r.dataLen)/util.SectorSize), r.dataJOff)
	}
	j.flushes++
	j.batchedRecords += int64(len(batch))
	m := s.cfg.Metrics
	m.ObserveValue(MetricBatchRecords, int64(len(batch)))
	m.ObserveLatency(MetricFlushLatency, flushed.Sub(claimed))
	if len(j.commitq) > 0 {
		j.commitq[0].lead = true
	} else {
		j.flushing = false
	}
	s.cond.Signal()
	// Every waiter learns its fate before the lock drops: the next leader may
	// start the moment it does, and claims its batch into the same buffer.
	s.commit.Broadcast()
	clear(batch)
	j.batch = batch[:0]
	s.mu.Unlock()
}

// writeRun writes one contiguous run of records as a single sequential
// device write and stamps each record with the write's result. Space is
// already reserved. The leader assembles the run's device image — each
// record's header sector, then a copy of its payload — in one buffer and
// writes that: carved from the journal's slab when the run can be resident,
// so the bytes written are the bytes replay will drain, and a lease of the
// run's own otherwise.
func (s *Set) writeRun(j *Journal, run []*pendingRecord, size int) {
	s.mu.Lock()
	img := s.carveLocked(j, run, size)
	s.mu.Unlock()
	resident := img != nil
	if !resident {
		img = bufpool.Get(size)
	}
	at := img
	for _, r := range run {
		r.header().Encode(at)
		copy(at[reclog.HeaderSize:], r.data)
		at = at[r.footer:]
	}
	err := j.log.WriteAt(img, run[0].pos)
	if !resident {
		bufpool.Put(img)
	}
	for _, r := range run {
		r.err = err
	}
}

const (
	// slabBytes is the lease the resident image is carved from: one lease per
	// ~56 records of 4 KiB, not one per record. It also caps a group-commit
	// run, like replayIOBytes caps the coalesced reads and sink writes on the
	// way out.
	slabBytes = replayIOBytes
	// residentBudgetBytes bounds the slabs one Set leases: the window being
	// drained and the one filling behind it. A replayer that keeps up holds
	// a slab or two; past the budget a record is journaled as before and
	// replay reads it back from the device.
	residentBudgetBytes = 2 * replayWindowBytes
)

// carveLocked makes a run resident: it carves size bytes for the run's
// device image from j's slab — a fresh one when the run does not fit what is
// left — and points each record at its share. It returns nil, and the run is
// not resident, when a fresh slab would exceed the budget, the run exceeds a
// slab, or the set has closed. The image is filled and written by the
// caller outside the lock; nothing reads it before the flush marks its
// records ready.
func (s *Set) carveLocked(j *Journal, run []*pendingRecord, size int) []byte {
	sl := j.slab
	if sl == nil || len(sl.buf)-sl.used < size {
		if size > slabBytes || s.residentBytes+slabBytes > residentBudgetBytes || s.closed {
			return nil
		}
		if n := len(s.freeSlabs); n > 0 {
			sl, s.freeSlabs = s.freeSlabs[n-1], s.freeSlabs[:n-1]
		} else {
			sl = new(slab)
		}
		sl.buf = bufpool.Get(slabBytes)
		s.residentBytes += slabBytes
		s.residentPeak = max(s.residentPeak, s.residentBytes)
		j.slab = sl // the one before it lives on through its records
	}
	img := sl.buf[sl.used : sl.used+size : sl.used+size]
	sl.used += size
	sl.recs += len(run)
	at := img
	for _, r := range run {
		r.image, r.slab = at[:r.footer:r.footer], sl
		at = at[r.footer:]
	}
	return img
}

// dropImageLocked ends rec's residency, if it has one; the last record out
// of a slab returns its lease. Residency ends where the record's life does:
// a failed flush, reclaimWindow, Close.
func (s *Set) dropImageLocked(j *Journal, rec *pendingRecord) {
	sl := rec.slab
	if sl == nil {
		return
	}
	rec.image, rec.slab = nil, nil
	if sl.recs--; sl.recs > 0 {
		return
	}
	if j.slab == sl {
		j.slab = nil
	}
	bufpool.Put(sl.buf)
	s.residentBytes -= slabBytes
	*sl = slab{}
	s.freeSlabs = append(s.freeSlabs, sl)
}

// dropCommittedImagesLocked ends the residency of every committed record. A
// record still in its flush is being written from its image: it is left to
// its leader. The caller guarantees that no replay is under way.
func (s *Set) dropCommittedImagesLocked() {
	for _, j := range s.journals {
		for _, rec := range j.fifo {
			if rec.ready {
				s.dropImageLocked(j, rec)
			}
		}
	}
}

// chunkLockStripes is the per-chunk lock stripe count; power of two.
const chunkLockStripes = 32

// chunkLock returns the per-chunk serialization lock (striped).
func (s *Set) chunkLock(id blockstore.ChunkID) clock.Mutex {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return s.chunkLocks[h>>59&(chunkLockStripes-1)]
}

// WriteDirect performs a journal-bypass backup write (large sequential
// writes, §3.2): the data goes straight to the backup disk and any
// overlapped journal appends are invalidated. The per-chunk lock orders it
// against an in-flight replay of the same chunk, so a stale replay can
// never land on top of newer bypass data.
func (s *Set) WriteDirect(id blockstore.ChunkID, data []byte, off int64) error {
	if err := checkAligned(off, len(data)); err != nil {
		return err
	}
	l := s.chunkLock(id)
	l.Lock()
	defer l.Unlock()
	if err := s.sink.WriteAt(id, data, off); err != nil {
		return err
	}
	s.mu.Lock()
	if ix, ok := s.indexes[id]; ok {
		ix.Invalidate(uint32(off/util.SectorSize), uint32(len(data)/util.SectorSize))
	}
	s.mu.Unlock()
	return nil
}

// Read serves a backup read: newest journal data for mapped extents, the
// backup disk for the holes. It is the backup read path of temporary
// primaries, recovery (§4.2.1) and the scrubber. The extents are
// snapshotted under the lock and read outside it, like the replayer's; as
// Read is not the reclaimer it re-checks s.reclaims afterwards and re-runs
// the query if a window was retired meanwhile — bytes read from space that
// may have been trimmed or re-appended are never returned.
func (s *Set) Read(id blockstore.ChunkID, p []byte, off int64) error {
	if err := checkAligned(off, len(p)); err != nil {
		return err
	}
	offSec := uint32(off / util.SectorSize)
	lenSec := uint32(len(p) / util.SectorSize)

	// Per-call pooled scratch: concurrent Reads cannot share Set-level state.
	rs := readScratchPool.Get().(*readScratch)
	for {
		s.mu.Lock()
		ix, ok := s.indexes[id]
		if !ok {
			s.mu.Unlock()
			readScratchPool.Put(rs)
			return s.sink.ReadAt(id, p, off)
		}
		rs.extents = ix.QueryInto(rs.extents[:0], offSec, lenSec)
		rs.journals = rs.journals[:0]
		for _, e := range rs.extents {
			j := s.journalOf(e.JOff)
			if j == nil {
				s.mu.Unlock()
				return fmt.Errorf("journal: no journal owns joff %d", e.JOff)
			}
			rs.journals = append(rs.journals, j)
		}
		reclaims := s.reclaims
		s.mu.Unlock()

		for i, e := range rs.extents {
			dst := p[(int64(e.Off)*util.SectorSize)-off:][:int64(e.Len)*util.SectorSize]
			if err := rs.journals[i].readAtJOff(dst, e.JOff); err != nil {
				return err
			}
		}

		s.mu.Lock()
		stable := s.reclaims == reclaims
		s.mu.Unlock()
		if stable {
			break
		}
	}

	rs.holes = jindex.HolesInto(rs.holes[:0], offSec, lenSec, rs.extents)
	for _, h := range rs.holes {
		dst := p[(int64(h.Off)*util.SectorSize)-off:][:int64(h.Len)*util.SectorSize]
		if err := s.sink.ReadAt(id, dst, int64(h.Off)*util.SectorSize); err != nil {
			return err
		}
	}
	clear(rs.journals)
	readScratchPool.Put(rs)
	return nil
}

// readScratch holds one Read call's extent and hole lists; error paths skip
// the Put and simply let the scratch fall to the collector.
type readScratch struct {
	extents, holes []jindex.Extent
	journals       []*Journal // journals[i] owns extents[i]
}

var readScratchPool = sync.Pool{New: func() any { return new(readScratch) }}

// DropChunk discards index state for a deleted chunk; its journal records
// are skipped at replay and leave — journal space and resident image alike —
// when their windows are reclaimed.
func (s *Set) DropChunk(id blockstore.ChunkID) {
	s.mu.Lock()
	delete(s.indexes, id)
	s.mu.Unlock()
}

// Drain synchronously replays every pending record, ignoring idle gating.
// Recovery and tests use it; production relies on the background replayer.
func (s *Set) Drain() {
	s.mu.Lock()
	s.force++
	s.cond.Broadcast()
	for s.pending > 0 && !s.closed {
		s.drainCond.Wait()
	}
	s.force--
	s.mu.Unlock()
}

// DevicesBusy reports whether any journal device in the set is serving I/O
// right now. A backup's read path merges journal-resident extents, so
// anything idle-gating reads against the backup (the scrubber) must watch
// the journal devices too, not just the data disk.
func (s *Set) DevicesBusy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.journals {
		if j.log.Disk().QueueDepth() > 0 {
			return true
		}
	}
	return false
}

// Pending returns the number of unreplayed records.
func (s *Set) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// indexLocked returns (creating if needed) the chunk's index.
func (s *Set) indexLocked(id blockstore.ChunkID) *jindex.Index {
	ix, ok := s.indexes[id]
	if !ok {
		ix = jindex.New(autoMergeAt)
		s.indexes[id] = ix
	}
	return ix
}

// journalOf maps a global joff to its journal.
func (s *Set) journalOf(joff uint64) *Journal {
	r := int(joff >> joffRegionBits)
	if r < len(s.journals) && s.journals[r].owns(joff) {
		return s.journals[r]
	}
	return nil
}

// Replay lock discipline. s.mu guards the index map and the indexes (an
// index has no lock of its own), the fifos, tail/head and the counters, and
// is held only for index updates and queries, fifo/tail bookkeeping and
// trims — never across a journal-device read or a sink write, so a
// foreground Append never waits for replay I/O. That is safe because the
// replayer is the only goroutine that pops a fifo or trims a log: the window
// it is working on cannot be reclaimed under its own reads. Other readers of
// journal space (Set.Read) snapshot extents under the lock, read outside it,
// and re-check s.reclaims afterwards — see reclaimWindow for the other half.

const (
	// replayWindowBytes is the payload budget of one replay window. A window
	// is written to the sink as one ascending sweep, so the budget sets how
	// dense that sweep is (records per MiB of chunk space) and how much
	// journal data the replayer may hold in memory at once.
	replayWindowBytes = 4 * util.MiB
	// replayIOBytes caps one coalesced journal read and one coalesced sink
	// write: large enough to amortize the per-op device cost, small enough
	// to stay in a mid-size buffer class and to bound how long a foreground
	// write waits behind a single replay write.
	replayIOBytes = 256 * util.KiB
)

// liveRec is a window record that still backs index extents.
type liveRec struct {
	rec  *pendingRecord
	read int32  // index into replayScratch.reads; unused for a resident record
	data []byte // verified payload, in its read's buffer or the resident image; nil until first use
	err  error  // verification failure: none of its bytes may reach the sink
}

// replayExt is one live extent of a window record, keyed for the sweep.
type replayExt struct {
	jindex.Extent
	slot  int64 // sink position of the chunk; 0 when the sink cannot say
	chunk blockstore.ChunkID
	rec   int32 // index into replayScratch.live
}

// journalRead is one coalesced journal-device read: live[first:first+n] sit
// back to back on the device, headers included, in bytes bytes.
type journalRead struct {
	first, n int
	bytes    int64
	buf      []byte // leased once the read has been issued
}

// replayScratch is the replayer's working state for one window, reused
// across windows. Only the replay goroutine touches it; planLocked and
// the revalidation queries additionally run under s.mu.
type replayScratch struct {
	live  []liveRec
	exts  []replayExt // sorted by (slot, chunk, Off): the sweep order
	reads []journalRead
	valid []replayExt     // one run's extents after revalidation
	q     []jindex.Extent // index query scratch

	// Payload bytes verified for the sink since the last reclaim, by where
	// they came from: the resident image or a journal-device read.
	fromMemory, fromDevice int64
}

// stillMapped returns the pieces of x that ix still maps to the journal
// sectors x names (into the query scratch: valid until the next call). A
// piece overwritten, invalidated or dropped since x was planned is absent.
func (rp *replayScratch) stillMapped(ix *jindex.Index, x jindex.Extent) []jindex.Extent {
	rp.q = ix.QueryInto(rp.q[:0], x.Off, x.Len)
	n := 0
	for _, e := range rp.q {
		if e.JOff == x.JOff+uint64(e.Off-x.Off) {
			rp.q[n] = e
			n++
		}
	}
	return rp.q[:n]
}

// slotLocator is the optional sink extension that orders chunk groups by
// their position on the backup disk; blockstore.Store implements it.
type slotLocator interface {
	SlotOffset(id blockstore.ChunkID) int64
}

// replayLoop is the single background replayer.
func (s *Set) replayLoop() {
	defer close(s.done)
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		j := s.nextJournalLocked()
		if j == nil {
			if s.pending == 0 {
				s.drainCond.Broadcast()
				s.cond.Wait() // new append, Drain, or Close
				s.mu.Unlock()
				continue
			}
			// Records exist but are gated (mid-write or idle-only): poll.
			s.mu.Unlock()
			s.clk.Sleep(pollInterval)
			continue
		}
		window := s.windowLocked(j)
		s.planLocked(window)
		s.mu.Unlock()
		if !s.replayWindow(j, window) {
			// Window parked (a chunk could not reach the sink): its records
			// stay queued; poll until a heal lets them through.
			s.clk.Sleep(pollInterval)
		}
	}
}

// nextJournalLocked picks the highest-priority journal whose head record is
// replayable (a failed record counts: its window only reclaims space).
// Replay always yields to foreground work on the backup disk: its random
// writes would otherwise starve journal appends and bypass writes, inverting
// the journals' whole purpose (§3.2, §5.3).
func (s *Set) nextJournalLocked() *Journal {
	if s.force == 0 {
		now := s.clk.Now()
		if s.sink.Disk().QueueDepth() > 0 {
			s.lastBusy = now
			return nil // the backup disk is serving foreground I/O
		}
		if now.Sub(s.lastBusy) < idleGrace {
			return nil // let a foreground burst finish before seeking away
		}
	}
	for i, j := range s.journals {
		if len(j.fifo) == 0 || !(j.fifo[0].ready || j.fifo[0].failed) {
			continue
		}
		if s.idleOnly[i] && s.force == 0 && j.log.Disk().QueueDepth() > 0 {
			continue
		}
		return j
	}
	return nil
}

// windowLocked collects the replayable prefix of j's fifo: ready records up
// to the replayWindowRecords cap or the replayWindowBytes payload budget,
// plus any failed records between them, stopping at the first record still
// awaiting its commit flush. The entries stay on the fifo — this loop is the
// only consumer — and are popped together after replay.
func (s *Set) windowLocked(j *Journal) []*pendingRecord {
	n, records, payload := 0, 0, 0
	for n < len(j.fifo) && records < replayWindowRecords && payload < replayWindowBytes {
		r := j.fifo[n]
		if r.failed {
			n++
			continue
		}
		if !r.ready {
			break
		}
		records++
		payload += r.dataLen
		n++
	}
	return j.fifo[:n:n]
}

// planLocked fills the scratch with the window's live records, in journal
// order, and their live extents: only index entries still pointing inside a
// record's payload are live — everything else was overwritten since the
// append and merges away (the paper's "overwrites between two successive
// replays" saving). A record with no live extent is never read.
func (s *Set) planLocked(window []*pendingRecord) {
	rp := &s.rp
	rp.live, rp.exts = rp.live[:0], rp.exts[:0]
	var ix *jindex.Index
	ixChunk := noChunk
	for _, rec := range window {
		if rec.failed {
			continue
		}
		if rec.chunk != ixChunk {
			ix, ixChunk = s.indexes[rec.chunk], rec.chunk
		}
		if ix == nil {
			continue // chunk dropped since the append
		}
		lenSec := uint32(int64(rec.dataLen) / util.SectorSize)
		jEnd := rec.dataJOff + uint64(lenSec)
		rp.q = ix.QueryInto(rp.q[:0], uint32(rec.off/util.SectorSize), lenSec)
		n := len(rp.exts)
		for _, e := range rp.q {
			if e.JOff >= rec.dataJOff && e.JOff < jEnd {
				rp.exts = append(rp.exts, replayExt{Extent: e, chunk: rec.chunk, rec: int32(len(rp.live))})
			}
		}
		if len(rp.exts) > n {
			rp.live = append(rp.live, liveRec{rec: rec})
		}
	}
}

func compareReplayExt(a, b replayExt) int {
	if c := cmp.Compare(a.slot, b.slot); c != 0 {
		return c
	}
	if c := cmp.Compare(a.chunk, b.chunk); c != 0 {
		return c
	}
	return cmp.Compare(a.Off, b.Off)
}

// orderSweep sorts the planned extents into the order the sink sees them —
// ascending disk position of the chunk, then ascending chunk offset, so a
// window is one elevator sweep over the backup HDD — and groups the live
// records that are not resident into coalesced journal reads:
// position-contiguous records share one sequential read of up to
// replayIOBytes, like flush coalesces runs on the way in.
func (s *Set) orderSweep() {
	rp := &s.rp
	if loc, ok := s.sink.(slotLocator); ok {
		var slot int64
		of := noChunk
		for i := range rp.exts {
			if e := &rp.exts[i]; e.chunk != of {
				slot, of = loc.SlotOffset(e.chunk), e.chunk
			}
			rp.exts[i].slot = slot
		}
	}
	slices.SortFunc(rp.exts, compareReplayExt)

	rp.reads = rp.reads[:0]
	for i := 0; i < len(rp.live); {
		if rp.live[i].rec.image != nil {
			i++ // resident: drained from memory
			continue
		}
		n := rp.live[i].rec.footer
		k := i + 1
		for k < len(rp.live) && rp.live[k].rec.image == nil && n+rp.live[k].rec.footer <= replayIOBytes &&
			rp.live[k].rec.dataJOff == rp.live[i].rec.dataJOff+uint64(n/util.SectorSize) {
			n += rp.live[k].rec.footer
			k++
		}
		for m := i; m < k; m++ {
			rp.live[m].read = int32(len(rp.reads))
		}
		rp.reads = append(rp.reads, journalRead{first: i, n: k - i, bytes: n})
		i = k
	}
}

// replayWindow drains one planned window: the live extents of all its
// records, sorted into one ascending sweep and coalesced into the fewest
// sink writes, then the whole window's journal space reclaimed at once. It
// returns false when the window parked — some chunk's data could not reach
// the sink (sink write failure, unreadable or corrupt journal record);
// that chunk's remaining runs are skipped, the others still land, nothing
// is popped or reclaimed, and the caller polls before retrying.
//
// Unless a Drain forces it, the window is pre-emptible: the idle gate is
// re-checked before every sink write and the rest of the window abandoned
// when foreground I/O has arrived on the backup disk. Both a parked and an
// abandoned window are safe to retry from scratch: extents that did reach
// the sink were invalidated, so the retry finds them dead and skips them.
func (s *Set) replayWindow(j *Journal, window []*pendingRecord) bool {
	rp := &s.rp
	s.orderSweep()

	parked, abandoned := false, false
	var failed blockstore.ChunkID // chunk whose remaining runs are skipped
	for i := 0; i < len(rp.exts) && !abandoned; {
		// A run is a maximal sequence of extents adjacent in one chunk: one
		// sink write. The index maps each chunk sector to at most one journal
		// location, so extents surviving from different records never overlap.
		k := i + 1
		for k < len(rp.exts) && rp.exts[k].chunk == rp.exts[i].chunk &&
			rp.exts[k].Off == rp.exts[k-1].End() &&
			int64(rp.exts[k].End()-rp.exts[i].Off)*util.SectorSize <= replayIOBytes {
			k++
		}
		run := rp.exts[i:k]
		i = k
		id := run[0].chunk
		if parked && id == failed {
			continue
		}
		stop, err := s.replayRun(j, run)
		abandoned = stop
		if err != nil {
			parked, failed = true, id
			s.reportReplayError(id, err)
		}
	}

	for i := range rp.reads {
		bufpool.Put(rp.reads[i].buf)
	}
	clear(rp.reads)
	clear(rp.live) // drop the record and buffer references until the next window
	if abandoned || parked {
		return !parked
	}
	s.reclaimWindow(j, window)
	return true
}

// replayRun writes one run of adjacent extents to the sink, holding the
// chunk lock across revalidate → sink write → invalidate so a bypass write
// cannot interleave with a stale replay (lock order: chunk lock before
// s.mu). The lock covers exactly one run, so a bypass write to the chunk
// waits for one sink write, not for the window. stop reports that the rest
// of the window must be abandoned (foreground I/O arrived, or the set is
// closing); err that the run's data could not all reach the sink.
func (s *Set) replayRun(j *Journal, run []replayExt) (stop bool, err error) {
	rp := &s.rp
	id := run[0].chunk
	l := s.chunkLock(id)
	l.Lock()
	defer l.Unlock()

	// Revalidate: an overwrite or bypass write since the plan may have
	// killed part of the run; only the pieces still mapped are written.
	busy := s.sink.Disk().QueueDepth() > 0
	s.mu.Lock()
	stop = s.closed || (busy && s.force == 0)
	rp.valid = rp.valid[:0]
	if ix := s.indexes[id]; ix != nil && !stop {
		for _, x := range run {
			for _, e := range rp.stillMapped(ix, x.Extent) {
				rp.valid = append(rp.valid, replayExt{Extent: e, chunk: id, rec: x.rec})
			}
		}
	}
	if stop && !s.closed {
		s.lastBusy = s.clk.Now() // pre-empted: restart the idle grace
	}
	s.mu.Unlock()
	if stop {
		return true, nil
	}

	// Sink writes run outside s.mu (appends continue meanwhile). A failed
	// write parks the remainder; what DID land is still invalidated below so
	// the retry never resurrects stale data.
	written := 0
	for a := 0; a < len(rp.valid) && err == nil; {
		b := a + 1
		for b < len(rp.valid) && rp.valid[b].Off == rp.valid[b-1].End() {
			b++
		}
		if err = s.writePieces(j, rp.valid[a:b]); err == nil {
			written = b
			j.sinkWrites++
		}
		a = b
	}

	s.mu.Lock()
	// Remove the mappings just replayed — but only where the index still
	// points at them; newer appends that landed during the sink write keep
	// precedence.
	ix := s.indexes[id]
	for _, w := range rp.valid[:written] {
		j.sunkSectors += int64(w.Len)
		if ix == nil {
			continue // chunk dropped meanwhile
		}
		for _, e := range rp.stillMapped(ix, w.Extent) {
			ix.Invalidate(e.Off, e.Len)
		}
	}
	s.mu.Unlock()
	return false, err
}

// writePieces issues one sink write for adjacent pieces of one chunk. A
// single piece is written straight from the journal read buffer; several
// are gathered into one leased buffer first.
func (s *Set) writePieces(j *Journal, pieces []replayExt) error {
	id, lo := pieces[0].chunk, pieces[0].Off
	off := int64(lo) * util.SectorSize
	if len(pieces) == 1 {
		data, err := s.payload(j, pieces[0])
		if err != nil {
			return err
		}
		return s.sink.WriteAt(id, data, off)
	}
	buf := bufpool.Get(int(int64(pieces[len(pieces)-1].End()-lo) * util.SectorSize))
	defer bufpool.Put(buf)
	for _, p := range pieces {
		data, err := s.payload(j, p)
		if err != nil {
			return err
		}
		copy(buf[int64(p.Off-lo)*util.SectorSize:], data)
	}
	return s.sink.WriteAt(id, buf, off)
}

// payload returns the journal bytes backing extent p, verified on first
// use. A resident record is served from the image its flush wrote, checked
// like a device read is: against the header and the CRC Append computed.
// Any other takes its coalesced journal read — so each live record is read
// from the journal device at most once per window, and an abandoned window
// has read only what it was about to write.
func (s *Set) payload(j *Journal, p replayExt) ([]byte, error) {
	lr := &s.rp.live[p.rec]
	if lr.data == nil && lr.err == nil {
		if img := lr.rec.image; img != nil {
			if lr.err = verifyRecord(j, lr.rec, img); lr.err == nil {
				lr.data = img[reclog.HeaderSize:]
				s.rp.fromMemory += int64(lr.rec.dataLen)
			}
		} else if err := s.readRecords(j, &s.rp.reads[lr.read]); err != nil {
			return nil, err
		}
	}
	if lr.err != nil {
		return nil, lr.err
	}
	lo := int64(p.JOff-lr.rec.dataJOff) * util.SectorSize
	return lr.data[lo : lo+int64(p.Len)*util.SectorSize], nil
}

// readRecords issues one coalesced journal read — header and payload of
// every record in it, one device op — and verifies each record from that
// buffer BEFORE any byte of it can reach the sink: bit-rot inside the
// journal region must park the window for repair (journal-replay-corrupt),
// never be silently replayed as committed data. A verification failure is
// remembered on its own record only; a device error fails the whole read
// and is retried by the next extent that needs it.
func (s *Set) readRecords(j *Journal, r *journalRead) error {
	live := s.rp.live[r.first : r.first+r.n]
	buf := bufpool.Get(int(r.bytes))
	if err := j.log.ReadAt(buf, live[0].rec.pos); err != nil {
		bufpool.Put(buf)
		return err
	}
	r.buf = buf
	for i := range live {
		rec := live[i].rec
		if err := verifyRecord(j, rec, buf[:rec.footer]); err != nil {
			live[i].err = err
		} else {
			live[i].data = buf[reclog.HeaderSize : reclog.HeaderSize+rec.dataLen]
			s.rp.fromDevice += int64(rec.dataLen)
		}
		buf = buf[rec.footer:]
	}
	return nil
}

// verifyRecord checks a record's image — header sector, then payload, from
// the device or resident — with reclog.Verify (header CRC, position,
// payload CRC), and that its header is the one rec's flush wrote. A
// mismatch wraps util.ErrCorrupt.
func verifyRecord(j *Journal, rec *pendingRecord, image []byte) error {
	h, err := reclog.Verify(image, rec.pos)
	if err == nil && h != rec.header() {
		err = fmt.Errorf("header does not match the appended record: %w", util.ErrCorrupt)
	}
	if err != nil {
		return fmt.Errorf("journal %s: record %v@%d: %w", j.name, rec.chunk, rec.off, err)
	}
	return nil
}

// reportReplayError counts one chunk's parked replay and fires the fault
// callback outside the set lock.
func (s *Set) reportReplayError(id blockstore.ChunkID, err error) {
	corrupt := errors.Is(err, util.ErrCorrupt)
	s.mu.Lock()
	s.replayErrors++
	if corrupt {
		s.replayCorrupt++
	}
	cb := s.onReplayError
	s.mu.Unlock()
	if corrupt {
		s.cfg.Metrics.Counter(MetricReplayCorrupt).Inc()
	} else {
		s.cfg.Metrics.Counter(MetricReplayErrors).Inc()
	}
	if cb != nil {
		cb(id, err)
	}
}

// reclaimWindow retires a fully replayed window: none of its records backs
// an index extent any more, so the log is trimmed to the window's end — its
// records and the wrap pads between them — and the space handed back to
// appenders. s.reclaims moves in the same hold, so a Read that snapshotted
// extents of this window before they were invalidated re-runs its query
// instead of trusting bytes read from trimmed space. The trim's discard
// releases simulated pages and costs no device time, so it runs under s.mu
// with the tail advance: no append can reserve the space it releases.
func (s *Set) reclaimWindow(j *Journal, window []*pendingRecord) {
	var sectors int64
	replayed, failed := 0, 0
	for _, rec := range window {
		if rec.failed {
			failed++
		} else {
			replayed++
			sectors += int64(rec.dataLen) / util.SectorSize
		}
	}
	last := window[len(window)-1]

	s.mu.Lock()
	s.reclaims++
	j.log.Trim(last.pos + last.footer)
	for _, rec := range window {
		s.dropImageLocked(j, rec)
		// A record whose appender has yet to take its verdict (data still
		// set) is the appender's until then; it is left to the collector.
		if len(s.freeRecs) < maxFreeRecords && rec.data == nil {
			*rec = pendingRecord{}
			s.freeRecs = append(s.freeRecs, rec)
		}
	}
	// Pop by closing the fifo up in place: it keeps its capacity, where a
	// slid slice regrows every few appends. The window's slots are wiped
	// first, in the storage the window was cut from — still the fifo's
	// unless an append has moved it since — so a recycled record is out of
	// reach from either.
	n := len(window)
	clear(window)
	j.fifo = slices.Delete(j.fifo, 0, n)
	s.pending -= replayed + failed
	s.replayedRecords += int64(replayed)
	s.replayedBytes += sectors * util.SectorSize
	// Sectors of the window that never reached the sink were overwritten
	// before their turn; sunkSectors spans every attempt at this window.
	s.mergedSectors += sectors - j.sunkSectors
	s.fromMemory += s.rp.fromMemory
	s.fromDevice += s.rp.fromDevice
	if m := s.cfg.Metrics; replayed > 0 {
		m.ObserveValue(MetricReplayWindow, int64(replayed))
		m.ObserveValue(MetricReplayWrites, j.sinkWrites)
		m.Counter(MetricReplayResidentBytes).Add(s.rp.fromMemory)
		m.Counter(MetricReplayDeviceBytes).Add(s.rp.fromDevice)
	}
	j.sunkSectors, j.sinkWrites = 0, 0
	s.rp.fromMemory, s.rp.fromDevice = 0, 0
	if s.pending == 0 {
		s.drainCond.Broadcast()
	}
	s.mu.Unlock()
}

// SetStats is a snapshot of journal-set activity.
type SetStats struct {
	Pending         int
	ReplayedRecords int64
	ReplayedBytes   int64
	MergedSectors   int64 // sectors never written to the sink (overwritten)
	Flushes         int64 // group-commit batches across all journals
	BatchedRecords  int64 // records committed by those batches
	DeadJournals    int64 // journals declared dead after a flush failure
	ReplayErrors    int64 // parked replay windows (chunk could not reach sink)
	ReplayCorrupt   int64 // parked replay windows whose record failed CRC verification
	// The resident image of the journal tail: payload bytes replay drained
	// from it, payload bytes it read back from a journal device instead, the
	// slab bytes leased now and at their highest (≤ residentBudgetBytes).
	ReplayedFromMemory int64
	ReplayedFromDevice int64
	ResidentBytes      int64
	ResidentPeakBytes  int64
}

// MeanBatch returns the average records per group-commit flush.
func (st SetStats) MeanBatch() float64 {
	if st.Flushes == 0 {
		return 0
	}
	return float64(st.BatchedRecords) / float64(st.Flushes)
}

// JournalStats describes one journal's occupancy (Set.JournalStats).
type JournalStats struct {
	Name    string
	Used    int64
	Size    int64
	Appends int64
	Bytes   int64
	Flushes int64
	Queued  int  // current commit-queue depth
	Dead    bool // failed and removed from striping
}

// Stats returns a consistent snapshot of the set's totals. It allocates
// nothing: the benchmark's counters read it from every set at every window.
func (s *Set) Stats() SetStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SetStats{
		Pending:         s.pending,
		ReplayedRecords: s.replayedRecords,
		ReplayedBytes:   s.replayedBytes,
		MergedSectors:   s.mergedSectors,
		DeadJournals:    s.deadJournals,
		ReplayErrors:    s.replayErrors,
		ReplayCorrupt:   s.replayCorrupt,

		ReplayedFromMemory: s.fromMemory,
		ReplayedFromDevice: s.fromDevice,
		ResidentBytes:      s.residentBytes,
		ResidentPeakBytes:  s.residentPeak,
	}
	for _, j := range s.journals {
		st.Flushes += j.flushes
		st.BatchedRecords += j.batchedRecords
	}
	return st
}

// JournalStats returns each journal's occupancy and traffic, in the order
// the journals were added.
func (s *Set) JournalStats() []JournalStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JournalStats, 0, len(s.journals))
	for _, j := range s.journals {
		out = append(out, JournalStats{
			Name:    j.name,
			Used:    j.UsedBytes(),
			Size:    j.log.Size(),
			Appends: j.appends,
			Bytes:   j.bytesAppended,
			Flushes: j.flushes,
			Queued:  j.queued,
			Dead:    j.dead,
		})
	}
	return out
}
