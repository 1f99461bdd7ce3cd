package chunkserver

import (
	"errors"
	"fmt"

	"ursa/internal/bufpool"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/redundancy"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// The versioned-apply pipeline: the one §4.2.1 rule every replica runs for
// every write it receives — a replica at version v applies the write that
// carries v and acks at v+1, in order. handleApply is the skeleton; applyStep
// is the only part that knows whether this replica is the write's primary or
// one of its backups.

// errPredecessorFailed aborts a write whose overlapping predecessor's apply
// failed: the predecessor's slot will be re-claimed by a retry carrying
// older data, so writing ours first would let that retry overwrite it.
var errPredecessorFailed = errors.New("chunkserver: overlapping predecessor write failed")

// errPlanEvicted fails a duplicate RS write whose cached fan-out plan is
// gone (see applyStep.begin).
var errPlanEvicted = errors.New("chunkserver: cached fan-out plan evicted")

// admitWriteLocked runs the §4.2.1 version rules for a write carrying
// version v and, when the write is admitted, claims its version slot and
// registers its extent in the chunk's pending table — the short in-lock
// ordering section of the pipelined write path. It returns exactly one of:
//
//   - claim != 0: slot m.Version is claimed, as claim number claim; deps says
//     whether pending predecessors overlap the write, which the caller must
//     then wait out (awaitDeps) before applying out of lock.
//   - skipLocal: the write is the §4.2.1 duplicate (already applied here);
//     no slot is claimed, the caller still forwards/acks.
//   - resp != nil: the request short-circuits with this reply.
//
// Waits (our slot not yet reserved, or a duplicate of a still-in-flight
// write) are bounded by the op's remaining budget. Called and returns with
// cs.mu held.
func (s *Server) admitWriteLocked(cs *chunkState, op *opctx.Op, m *proto.Message) (claim uint64, deps, skipLocal bool, resp *proto.Message) {
	deadline := s.cfg.Clock.Now().Add(s.opBudget(op, s.cfg.ReplTimeout))
	var wait opctx.StageTimer
	waited := false
	defer func() {
		if waited {
			wait.Stop()
		}
	}()
	for {
		if cs.deleted() {
			return 0, false, false, m.Reply(proto.StatusNotFound)
		}
		p, claimed := cs.pending[m.Version]
		switch step, st := WriteRule(cs.view, cs.version, cs.reserved, m.View, m.Version, !claimed || p.failed); step {
		case WriteRefused:
			r := replyAt(m, st, cs.version)
			r.View = cs.view
			return 0, false, false, r
		case WriteDuplicate:
			// Already applied here (retry after a partial failure): skip the
			// local write but still forward/ack (§4.2.1).
			return 0, false, true, nil
		case WriteApply:
			// A failed claim's overlapping successors aborted, so nothing
			// newer can be on disk under our extent.
			claim, deps = s.claimSlotLocked(cs, m)
			return claim, deps, false, nil
		}
		if !waited {
			wait, waited = op.Stage(opctx.StageReplay), true
		}
		if !cs.waitChangeLocked(op, deadline) {
			return 0, false, false, replyAt(m, proto.StatusBehind, cs.version)
		}
	}
}

// claimSlotLocked registers m's write in the pending table under a fresh
// claim number and reports whether it has predecessors to wait out before
// touching the device: entries of lower slots whose extents overlap m's.
// Every lower slot has been handed out by now, so a write that overlaps none
// of them here never will. Claiming the next free slot advances the
// reservation cursor and wakes writers queued on it.
func (s *Server) claimSlotLocked(cs *chunkState, m *proto.Message) (claim uint64, deps bool) {
	busy, failed := cs.predecessorsLocked(m.Version, m.Off, len(m.Payload))
	cs.claims++
	cs.pending[m.Version] = pendingWrite{claim: cs.claims, off: m.Off, length: len(m.Payload)}
	if m.Version == cs.reserved {
		cs.reserved++
	}
	cs.bumpLocked()
	return cs.claims, busy || failed
}

// awaitDeps blocks until every pending predecessor overlapping m's extent
// has finished its device apply, bounded by the op's budget. The table is
// consulted afresh at every change of the chunk's state rather than through
// references taken at admission: entries are values that their slot's next
// claimant overwrites. A failed predecessor aborts the write: its slot must
// stay re-claimable by the retry that carries the missing data, and our
// extent overlaps that retry's. (A retry that has re-claimed the slot by the
// time we look is simply a predecessor still applying, and lands first.)
func (s *Server) awaitDeps(cs *chunkState, op *opctx.Op, m *proto.Message) error {
	clk := s.cfg.Clock
	t0 := clk.Now()
	deadline := t0.Add(s.opBudget(op, s.cfg.ReplTimeout))
	st := op.Stage(opctx.StageApplyWait)
	defer st.Stop()
	cs.mu.Lock()
	for {
		busy, failed := cs.predecessorsLocked(m.Version, m.Off, len(m.Payload))
		if failed {
			cs.mu.Unlock()
			return errPredecessorFailed
		}
		if !busy {
			break
		}
		if !cs.waitChangeLocked(op, deadline) {
			cs.mu.Unlock()
			return fmt.Errorf("chunkserver: dependency wait: %w", util.ErrTimeout)
		}
	}
	cs.mu.Unlock()
	s.cfg.Metrics.ObserveLatency(MetricDepWait, clk.Now().Sub(t0))
	return nil
}

// awaitCommit blocks until the chunk's committed version reaches want —
// this write's own apply plus every predecessor's has landed — so acks go
// out strictly in version order and StatusOK at version v still implies
// every write ≤ v is applied. It returns the committed version and whether
// want was reached within the op's budget.
func (s *Server) awaitCommit(cs *chunkState, op *opctx.Op, want uint64) (uint64, bool) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.version >= want {
		return cs.version, true
	}
	deadline := s.cfg.Clock.Now().Add(s.opBudget(op, s.cfg.ReplTimeout))
	st := op.Stage(opctx.StageCommitWait)
	defer st.Stop()
	for cs.version < want && !cs.deleted() {
		if !cs.waitChangeLocked(op, deadline) {
			break
		}
	}
	return cs.version, cs.version >= want
}

// handleApply is the write path of every replica: OpWrite at a primary,
// OpReplicate (bytes, an XOR parity delta, or a bare version bump) at any
// replica. The chunk lock is held only for slot admission: the
// device apply runs out of lock, concurrently with other same-chunk writes
// whose extents do not overlap — so a primary SSD sees real queue depth and
// one journal flush batches a hot chunk's burst — and the ack waits for the
// committed version to reach this write's slot. Nothing here branches on the
// replica's role; that is the applyStep's business.
func (s *Server) handleApply(op *opctx.Op, m *proto.Message) *proto.Message {
	cs := s.chunk(m.Chunk)
	if cs == nil {
		return m.Reply(proto.StatusNotFound)
	}
	a := applyStep{s: s, op: op, m: m, cs: cs}
	if !a.bump() {
		if err := validRangeIn(m.Off, len(m.Payload), cs.span()); err != nil {
			return m.Reply(proto.StatusError)
		}
		// Copy-on-write materialization: the extents this write lands on must
		// be local before the write is admitted, or a later demand fetch of
		// the same extent would overwrite newer bytes with the snapshot's.
		if err := s.ensureCold(op, cs, m.Chunk, m.Off, len(m.Payload)); err != nil {
			return m.Reply(proto.StatusError)
		}
	}
	cs.mu.Lock()
	claim, deps, skipLocal, resp := s.admitWriteLocked(cs, op, m)
	if resp != nil {
		cs.mu.Unlock()
		return resp
	}
	a.backups, a.strat = cs.backups, cs.strat
	depth := len(cs.pending)
	cs.mu.Unlock()
	s.cfg.Metrics.ObserveValue(MetricPendingWrites, int64(depth))

	if err := a.begin(skipLocal); err != nil {
		if !skipLocal {
			cs.applyDone(m.Version, claim, err)
		}
		return m.Reply(proto.StatusError)
	}
	if !skipLocal {
		if deps {
			if err := s.awaitDeps(cs, op, m); err != nil {
				cs.applyDone(m.Version, claim, err)
				a.join()
				return replyAt(m, proto.StatusBehind, cs.committed())
			}
		}
		err := a.apply()
		cs.applyDone(m.Version, claim, err)
		if err != nil {
			a.join()
			return s.failDevice(m, err)
		}
	}
	s.bytesWritten.Add(int64(len(m.Payload)))

	newVer, committed := s.awaitCommit(cs, op, m.Version+1)
	if !committed {
		a.join()
		return replyAt(m, proto.StatusBehind, newVer)
	}
	if !a.join() {
		s.noQuorums.Add(1)
		return replyAt(m, proto.StatusError, newVer)
	}
	return replyAt(m, proto.StatusOK, newVer)
}

// applyStep is the role-specific part of one pass through handleApply: a
// stack value, not a closure, which the skeleton touches at three fixed
// points — begin before the dependency wait, apply after it, join before any
// reply once begin has run. The op says only whether to replicate: OpWrite
// makes the primary replicate to the chunk's backup tier, owning the fan-out
// it starts; OpReplicate only applies — a backup's shipment, or a
// client-directed write (§3.2) at any replica. Only OpWrite ever starts a
// fan-out, so every other join is true. How the bytes land is the server's
// business (writeVersioned), not the op's.
type applyStep struct {
	s  *Server
	op *opctx.Op
	m  *proto.Message
	cs *chunkState

	// backups and strat are the chunk's replication targets and strategy as
	// of admission.
	backups []string
	strat   redundancy.Strategy

	// The fan-out, once sent: the flight its shipments are on, and the
	// repl-wait stage that runs from the send to join's verdict.
	fl   *transport.Flight
	wait opctx.StageTimer
}

// bump reports whether the write is an RS version bump: no bytes, hence no
// range to validate, materialize or apply.
func (a *applyStep) bump() bool {
	return a.m.Op == proto.OpReplicate && a.m.Flags&proto.FlagVersionBump != 0
}

// fansOut reports whether this step replicates to a backup tier.
func (a *applyStep) fansOut() bool { return a.m.Op == proto.OpWrite && len(a.backups) > 0 }

// begin runs right after admission. Replication overlaps the local write:
// the primary puts the shipments on the wire as soon as the plan is ready and
// performs its own write while they travel and the backups apply them, so the
// end-to-end latency is max(local, backup), not their sum. Mirroring plans
// from the payload alone, so its fan-out leaves here, before even the
// dependency wait. A §4.2.1 duplicate of an RS write cannot recompute its
// parity deltas — the pre-write bytes are gone — so it resends the cached
// plan; a plan evicted from the cache means the retry arrived implausibly
// late: fail it and let recovery settle the stripe.
func (a *applyStep) begin(skipLocal bool) error {
	if !a.fansOut() {
		return nil
	}
	if !a.strat.NeedsOldData() {
		return a.dispatch(nil)
	}
	if skipLocal {
		ships, ok := a.cs.cachedShipments(a.m.Version)
		if !ok {
			return errPlanEvicted
		}
		a.send(ships)
	}
	return nil
}

// dispatch plans the write's fan-out and sends it. A mirror's plan — the
// common case, a shipment per backup aliasing the payload — is built on this
// frame, through the concrete type: handed to an interface method, the array
// would have to be assumed to escape.
func (a *applyStep) dispatch(old []byte) error {
	var few [4]redundancy.Shipment
	var ships []redundancy.Shipment
	var err error
	if mirror, ok := a.strat.(redundancy.Mirror); ok {
		ships, err = mirror.PlanWrite(few[:0], a.m.Off, a.m.Payload, old, len(a.backups))
	} else {
		ships, err = a.strat.PlanWrite(nil, a.m.Off, a.m.Payload, old, len(a.backups))
	}
	if err != nil {
		return err
	}
	if a.strat.NeedsOldData() {
		a.cs.cacheShipments(a.m.Version, ships)
	}
	a.send(ships)
	return nil
}

// send puts the planned shipments on the wire, exactly one per backup, from
// this goroutine; join collects the acks. The window is NOT a server
// constant: it derives from the incoming op's remaining deadline, so the
// commit rule fires relative to the client's budget — only deadline-less ops
// fall back to the configured ReplTimeout.
func (a *applyStep) send(ships []redundancy.Shipment) {
	s, m := a.s, a.m
	a.fl = s.peers.Begin(a.op, len(ships), s.opBudget(a.op, s.cfg.ReplTimeout))
	a.wait = a.op.Stage(opctx.StageReplWait)
	for _, sh := range ships {
		// Mirror shipments alias the request payload, whose lease the
		// transport server releases when the handler returns — but a shipment
		// may still be queued or applying then (a degraded commit does not
		// wait for its stragglers). Each branch therefore carries its own
		// reference, consumed by its send. RS shipments own their buffers,
		// making this a no-op.
		bufpool.Retain(sh.Data)
		var flags uint8
		if sh.Xor {
			flags |= proto.FlagXorApply
		}
		if sh.Bump {
			flags |= proto.FlagVersionBump
		}
		req := proto.GetMessage()
		req.Op = proto.OpReplicate
		req.Chunk = m.Chunk
		req.Off = sh.Off
		req.View = m.View
		req.Version = m.Version
		req.Flags = flags
		req.Seg = uint16(sh.Target)
		req.Payload = sh.Data
		a.fl.Go(sh.Target, a.backups[sh.Target], req)
	}
}

// apply lands an admitted write whose overlapping predecessors have landed.
// RS parity deltas need the pre-write bytes, so an RS primary first reads the
// old range — verified: parity planned from rotten bytes would corrupt the
// stripe under an OK — plans, and dispatches its fan-out here rather than in
// begin. An XOR parity delta is folded into the current bytes, a version
// bump applies nothing, and the resolved bytes land through writeVersioned.
func (a *applyStep) apply() error {
	s, m := a.s, a.m
	if a.fansOut() && a.strat.NeedsOldData() {
		old := make([]byte, len(m.Payload))
		if err := s.readVerified(a.op, m.Chunk, old, m.Off); err != nil {
			return err
		}
		if err := a.dispatch(old); err != nil {
			return err
		}
	}
	if a.bump() {
		return nil
	}
	data := m.Payload
	if m.Flags&proto.FlagXorApply != 0 {
		// Parity RMW: fold the delta into the current parity bytes. The read
		// must verify — folding a delta into rotten parity would launder the
		// rot into every future reconstruction. The RMW is safe under
		// concurrency because overlapping deltas wait on each other through
		// the pending-write extent machinery, and delta application commutes
		// across disjoint admission orders.
		data = bufpool.Get(len(m.Payload))
		// writeVersioned returns only after the device or journal write, so
		// nothing references the folded bytes once this function returns.
		defer bufpool.Put(data)
		if err := s.readVerified(a.op, m.Chunk, data, m.Off); err != nil {
			return err
		}
		for i := range data {
			data[i] ^= m.Payload[i]
		}
	}
	return s.writeVersioned(a.op, m, data)
}

// join collects the fan-out's acks and applies the strategy's commit rule:
// true when every target acks, or when the strategy's degraded rule is met
// within the commit window — a majority of the replica group for mirroring
// (§4.2.1), at least N segment acks for RS(N,M) — and when nothing was fanned
// out. Every path out of handleApply after begin passes through it once. It
// ends the flight, so no shipment's ack can arrive for this request once it
// returns: a straggler's is dropped by the transport, and the request frame
// and the op are the handler's alone to recycle.
func (a *applyStep) join() bool {
	if a.fl == nil {
		return true
	}
	ok := a.collect()
	a.wait.Stop()
	a.fl.Finish()
	a.fl = nil
	return ok
}

func (a *applyStep) collect() bool {
	s, n := a.s, len(a.backups) // one shipment went to each
	acks := 0
	var few [8]int
	failed := few[:0]
	var heard uint64 // by target; no placement is 64 backups wide
	for done := 1; done <= n; done++ {
		r, ok := a.fl.Next()
		if !ok {
			// Window spent: whoever has not answered by now has failed,
			// and nothing is pending any more.
			for t := range a.backups {
				if heard&(1<<uint(t)) == 0 {
					failed = append(failed, t)
				}
			}
			done = n
		} else if heard |= 1 << uint(r.Target); !r.Err && r.Status == proto.StatusOK {
			acks++
		} else {
			failed = append(failed, r.Target)
		}
		if acks == n {
			return true
		}
		if len(failed) > 0 && a.strat.CommitOK(acks, len(a.backups)) {
			// The outcome is decided: a definitive failure rules out the
			// all-ack commit and the degraded rule already holds, so more
			// results cannot change the decision — only improve durability.
			// Reply now rather than waiting out the stragglers' window; a
			// dead holder's timeout would otherwise delay every committed
			// write's ack past the client's patience, and the client would
			// misread a committed write as failed. The stragglers' shipments
			// are on the wire and still apply; only their acks go unheard.
			//
			// Degraded commit: availability preserved at a transient
			// durability discount (§4.2.1). An RS stripe short a segment has
			// lost real redundancy, so the missing holders are reported for
			// rebuild now; mirrored chunks keep the paper's behaviour and
			// wait for the master's next probe.
			s.degradedCommits.Add(1)
			if a.strat.Spec().IsRS() {
				for _, t := range failed {
					s.reportFailure(a.m.Chunk, a.backups[t])
				}
			}
			return true
		}
		if pending := n - done; !a.strat.CommitOK(acks+pending, len(a.backups)) {
			// Even if every straggler acks, the commit rule cannot be met.
			return false
		}
	}
	return false
}
