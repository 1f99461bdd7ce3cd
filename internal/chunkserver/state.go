// Package chunkserver implements URSA's primary and backup chunk servers
// (§3.1, §4.2.1). A primary server keeps chunk replicas on an SSD and
// drives replication to backups; a backup server keeps replicas on an HDD
// behind a journal set, absorbing small writes as sequential appends and
// taking large writes directly (journal bypass).
//
// Request execution is out-of-order across chunks and pipelined within a
// chunk: a write claims its version slot under the chunk lock, registers
// its extent, and applies to the device outside the lock, concurrently
// with other same-chunk writes whose extents do not overlap (§3.4). The
// committed version advances strictly in version order as applies land.
package chunkserver

import (
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"ursa/internal/clock"
	"ursa/internal/journal"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/redundancy"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// Role distinguishes primary (SSD) from backup (HDD+journal) servers. It is
// derived, not configured: a server built over a journal set is a backup.
type Role int

// Server roles.
const (
	RolePrimary Role = iota
	RoleBackup
)

// pendingWrite is one admitted-but-uncommitted write: the extent it will
// touch and the fate of its device apply. It lives by value in the chunk's
// pending table under its version slot (a write carrying Version v sits in
// slot v and commits as v+1) and is read and written under chunkState.mu
// only. Writes whose extents overlap an earlier pending entry wait, on the
// chunk's change signal, for that entry to settle before touching the
// device; disjoint writes proceed in parallel.
type pendingWrite struct {
	// claim says which claim of the slot this entry is. A failed slot is
	// re-claimed by its sender's retry, so the slot number alone does not
	// identify an entry: the handler that claimed it settles it by
	// (slot, claim), and a handler whose entry has since been superseded or
	// dropped settles nothing.
	claim  uint64
	off    int64
	length int

	// applied: the device apply landed; failed: it did not, and the slot
	// waits for a retry to re-claim it. adoptVersionLocked may demote
	// applied to failed later.
	applied bool
	failed  bool
}

func (p pendingWrite) overlaps(off int64, n int) bool {
	return off < p.off+int64(p.length) && p.off < off+int64(n)
}

// chunkState is the per-chunk replication state of one replica.
type chunkState struct {
	// mu is the chunk lock: a clock.Mutex, as rebuilds and segment snapshots
	// hold it across fetches, installs and device reads.
	mu clock.Mutex

	version  uint64 // committed: number of fully applied writes
	reserved uint64 // version slots handed out; reserved >= version
	view     uint64 // persistent view number (§4.1)

	// pending maps a write's version slot to its in-flight entry. Slots in
	// [version, reserved) are present until they commit (advanceLocked
	// removes them in order) or fail (the failed entry stays, blocking the
	// chain, until a retry re-claims the slot or a rebuild adopts past it).
	pending map[uint64]pendingWrite
	claims  uint64 // slot claims made so far; the next entry's claim number

	// change is the chunk's one wake-up for the handlers parked on its state
	// (waitChangeLocked). bumpLocked counts a change in changes and
	// broadcasts whenever version, reserved, deletion, or a pending entry's
	// fate changes; the chunk's timer broadcasts when due, the earliest
	// deadline a parked handler armed it for, has passed. Made with the
	// chunk, never pooled.
	change  sync.Cond
	changes uint64
	timer   *time.Timer
	due     time.Time

	// backups are the peer addresses the primary replicates to; empty on
	// backup replicas.
	backups []string

	// lite records recent writes for incremental repair (§4.2.1).
	lite *journal.Lite

	// spec is the chunk's redundancy policy and strat its strategy (set at
	// create; immutable after). holder (below, beside the other flags) and
	// seg mark this replica as RS segment holder number seg; the primary and
	// mirror backups have holder=false.
	spec  redundancy.Spec
	strat redundancy.Strategy
	seg   int
	// put is the log position of the master entry whose create made the
	// replica (CreateChunkReq.Put; set at create, immutable after).
	put Pos

	// shipments caches a primary's RS fan-out plan per pending version: a
	// retry of an already-applied write can no longer recompute its parity
	// deltas (the pre-write data is gone), so it resends the cached plan.
	shipments map[uint64][]redundancy.Shipment

	// cold tracks a cloned chunk's not-yet-fetched object-backed extents
	// (nil for ordinary chunks). Set once at creation; the pointer is
	// immutable after, and the state has its own lock (see cold.go).
	cold *coldState

	// suspect is set when this server reports its own device for the chunk
	// (reportDeviceFailure) and cleared when a rebuild lands: in between the
	// replica does not vouch for its content (handleGetVersion answers
	// non-OK), so recovery treats the position as dead rather than trusting
	// a version number kept in memory. Atomic: reporters may hold cs.mu.
	suspect atomic.Bool

	holder bool
	// doom is the doom mark: one above the highest view at which a delete
	// waiting for the lock may drop the replica (0: none), proto.AnyView once
	// it is dropped or one may drop it at any view. A fill yields while it
	// is above the view (rebuild.go).
	doom atomic.Uint64
	// waiting is the flight a fill holding the lock waits on for a piece,
	// and waitView the view it holds, published under waitMu for doomTo.
	waitMu   sync.Mutex
	waiting  *transport.Flight
	waitView uint64
}

// doomTo raises the doom mark for a delete guarded by upTo (see doom), and
// cuts short the piece wait of a fill the delete may pre-empt.
func (cs *chunkState) doomTo(upTo uint64) {
	mark := min(upTo, proto.AnyView-1) + 1
	for cur := cs.doom.Load(); cur < mark && !cs.doom.CompareAndSwap(cur, mark); cur = cs.doom.Load() {
	}
	cs.waitMu.Lock()
	if cs.waiting != nil && mark > cs.waitView {
		cs.waiting.Expire()
	}
	cs.waitMu.Unlock()
}

// awaitPiece is a fill's wait, with cs.mu held, for the piece fl fetches. It
// is published for doomTo, and a fill already doomed does not wait.
func (cs *chunkState) awaitPiece(fl *transport.Flight) (*proto.Message, error) {
	cs.waitMu.Lock()
	cs.waiting, cs.waitView = fl, cs.view
	cs.waitMu.Unlock()
	defer func() {
		cs.waitMu.Lock()
		cs.waiting = nil
		cs.waitMu.Unlock()
	}()
	if cs.doom.Load() > cs.view {
		return nil, util.ErrNotFound // a delete may drop the replica: yield
	}
	return fl.Wait(0)
}

// deleted reports whether the replica is dropped, or about to be.
func (cs *chunkState) deleted() bool { return cs.doom.Load() == proto.AnyView }

// committed returns the replica's committed version.
func (cs *chunkState) committed() uint64 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.version
}

// outdatedBy reports whether a create asking for req finds this live state
// from an earlier view than req's, in another role or from another create.
func (cs *chunkState) outdatedBy(req CreateChunkReq) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return Outdated(cs.view, cs.put, cs.spec, cs.holder, cs.seg, req)
}

// span returns the replica's local slot size: one segment for RS holders,
// a full chunk otherwise.
func (cs *chunkState) span() int64 {
	if cs.holder && cs.spec.IsRS() {
		return cs.spec.SegSize()
	}
	return util.ChunkSize
}

// shipCacheDepth bounds the cached fan-out plans: retries arrive within a
// client round-trip, so anything more than a pipeline's worth of versions
// behind the committed version is stale.
const shipCacheDepth = 64

// cacheShipments remembers a copy of version's fan-out plan (the caller's may
// sit on its frame) and prunes entries that have fallen far behind the
// committed version.
func (cs *chunkState) cacheShipments(version uint64, ships []redundancy.Shipment) {
	cs.mu.Lock()
	if cs.shipments == nil {
		cs.shipments = make(map[uint64][]redundancy.Shipment)
	}
	cs.shipments[version] = append([]redundancy.Shipment(nil), ships...)
	for v := range cs.shipments {
		if v+shipCacheDepth < cs.version {
			delete(cs.shipments, v)
		}
	}
	cs.mu.Unlock()
}

// cachedShipments returns the remembered plan for version, if any.
func (cs *chunkState) cachedShipments(version uint64) ([]redundancy.Shipment, bool) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	ships, ok := cs.shipments[version]
	return ships, ok
}

// bumpLocked wakes everything blocked on the chunk's state.
func (cs *chunkState) bumpLocked() {
	cs.changes++
	cs.change.Broadcast()
}

// advanceLocked commits applied pending writes in version order: the
// committed version moves up across every consecutively applied slot,
// recording each extent in the repair history as it commits. It stops at
// the first missing, still-applying, or failed slot.
func (cs *chunkState) advanceLocked() {
	for {
		p, ok := cs.pending[cs.version]
		if !ok || !p.applied {
			return
		}
		delete(cs.pending, cs.version)
		if p.length > 0 {
			// Zero-length entries are RS version bumps: the version advances
			// but no bytes changed, so there is nothing to repair later.
			cs.lite.Record(cs.version+1, p.off, p.length)
		}
		cs.version++
	}
}

// applyDone records the outcome of the device apply of the write that made
// claim number claim of slot, wakes dependents, and advances the committed
// version over any newly completed prefix.
func (cs *chunkState) applyDone(slot, claim uint64, err error) {
	cs.mu.Lock()
	if p, ok := cs.pending[slot]; ok && p.claim == claim {
		p.applied, p.failed = err == nil, err != nil
		cs.pending[slot] = p
		cs.advanceLocked()
	}
	cs.bumpLocked()
	cs.mu.Unlock()
}

// predecessorsLocked reports the state of the pending writes below slot
// whose extents overlap [off, off+n): busy when one is still applying,
// failed when one's apply failed and its slot awaits the retry.
func (cs *chunkState) predecessorsLocked(slot uint64, off int64, n int) (busy, failed bool) {
	for v, p := range cs.pending {
		if v < slot && p.overlaps(off, n) {
			failed = failed || p.failed
			busy = busy || !(p.applied || p.failed)
		}
	}
	return busy, failed
}

// unsettledLocked reports whether an admitted write can still change what
// the device holds relative to the committed version. A write in flight —
// neither applied nor failed — always can: its device I/O is in progress or
// yet to start. With applied set, a write that has landed but cannot commit
// yet (an earlier slot failed) counts too: its bytes are on the device
// though the version does not say so, which a version-exact snapshot must
// not contain. Failed entries never count — they have no I/O outstanding.
func (cs *chunkState) unsettledLocked(applied bool) bool {
	for _, p := range cs.pending {
		if !p.failed && (applied || !p.applied) {
			return true
		}
	}
	return false
}

// adoptVersionLocked moves the replica to the version a rebuild that
// installed version v leaves it at (Adopted), with no local apply in flight
// (the rebuild engine drains them first). Every pending entry is superseded
// by the installed image. Slots below the version are dropped — their
// handlers have settled them, and commits no longer consider them. An entry
// at or above it that had applied is demoted to failed: the install may have
// overwritten its bytes, so it must not commit on their strength; like any
// failed slot it blocks the chain until the sender's retry re-claims it. A
// whole rebuild also hands slots out again from v, and drops the history and
// the cached RS plans that named versions it no longer holds: the history
// restarts at v, so a repair from below v falls back to a whole copy.
func (cs *chunkState) adoptVersionLocked(v uint64, whole bool) {
	cs.version = Adopted(cs.version, v, whole)
	if whole {
		cs.reserved = v
		cs.lite.Restart(v)
		maps.DeleteFunc(cs.shipments, func(ver uint64, _ []redundancy.Shipment) bool { return ver >= v })
	}
	cs.reserved = max(cs.reserved, cs.version)
	for slot, p := range cs.pending {
		if slot < cs.version {
			delete(cs.pending, slot)
		} else if p.applied {
			p.applied, p.failed = false, true
			cs.pending[slot] = p
		}
	}
	cs.bumpLocked()
}

// waitChangeLocked blocks until the chunk's state changes or deadline
// passes; it reports whether a change fired. Called and returns with cs.mu
// held; the mutex is released for the wait's duration.
func (cs *chunkState) waitChangeLocked(op *opctx.Op, deadline time.Time) bool {
	clk := op.Clock()
	for seen := cs.changes; cs.changes == seen; {
		rem := deadline.Sub(clk.Now())
		if rem <= 0 {
			return false
		}
		// Make sure the timer fires by our deadline: it is armed for the
		// earliest one, and whoever it wakes early re-arms it for their own.
		if cs.due.IsZero() || deadline.Before(cs.due) {
			cs.due = deadline
			if cs.timer == nil {
				cs.timer = time.AfterFunc(rem, cs.expire)
			} else {
				cs.timer.Reset(rem)
			}
		}
		cs.change.Wait()
	}
	return true
}

// expire runs when the chunk's timer fires: the earliest deadline armed has
// come, and every parked handler checks its own.
func (cs *chunkState) expire() {
	cs.mu.Lock()
	cs.due = time.Time{}
	cs.change.Broadcast()
	cs.mu.Unlock()
}
