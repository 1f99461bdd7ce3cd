package master

import (
	"errors"

	"ursa/internal/opctx"
	"ursa/internal/util"
)

// Cold-tier garbage collection. A segment holds the extents of one chunk of
// one snapshot flush, and every table that names a segment names all of it:
// the snapshot's own table and each clone's verbatim copy of it. No entry
// trims a table extent by extent, so a segment is referenced whole or not at
// all, and GC is one rule: delete every segment below the watermark that no
// table names. It never moves a live extent and never commits an entry. A
// feature that names part of a segment must bring compaction back with it.

// MetricGCSegmentsReclaimed counts segments deleted by GC.
const MetricGCSegmentsReclaimed = "gc-segments-reclaimed"

// RunColdGC performs one garbage-collection pass over the object store and
// reports how many segments it reclaimed. It is the one way GC runs:
// whoever owns the cluster calls it when it wants a pass. Safe to call
// concurrently (passes serialize). A pass is skipped — not an error — while
// a snapshot flush is in flight, because the flush's fresh segments have no
// referencing metadata yet. Only the primary judges: a standby's lagging
// state could take a newer snapshot's segment for dead.
func (m *Master) RunColdGC() (reclaimed int, err error) {
	if m.coldCl == nil {
		return 0, nil
	}
	if !m.IsPrimary() {
		return 0, m.errNotPrimary("cold gc")
	}
	m.gcMu.Lock()
	defer m.gcMu.Unlock()

	// The watermark rule: only segments with ID below nextSeg-as-of-now are
	// candidates. A flush starting after this point allocates IDs at or
	// above the watermark; one started before holds inflightFlushes, which
	// skips the pass entirely.
	m.mu.Lock()
	if m.inflightFlushes > 0 {
		m.mu.Unlock()
		return 0, nil
	}
	wm := m.st.nextSeg
	live := m.namedSegsLocked()
	m.mu.Unlock()

	op := opctx.New(m.cfg.Clock, 240*m.cfg.RPCTimeout)
	defer op.Release()
	objs, err := m.coldCl.ListSegments(op)
	if err != nil {
		return 0, err
	}
	for _, obj := range objs {
		// At or above the watermark: possibly a concurrent flush's segment,
		// not ours to judge. Named: live. Anything else is a deleted
		// snapshot's, a materialized clone's, or an aborted flush's orphan.
		if obj.Seg >= wm || live[obj.Seg] {
			continue
		}
		if derr := m.coldCl.DeleteSegment(op, obj.Seg); derr != nil && !errors.Is(derr, util.ErrNotFound) {
			continue
		}
		reclaimed++
	}
	if reclaimed > 0 {
		m.cfg.Metrics.Counter(MetricGCSegmentsReclaimed).Add(int64(reclaimed))
	}
	return reclaimed, nil
}

// namedSegsLocked returns the IDs of the segments some snapshot table or
// chunk cold table names (m.mu held).
func (m *Master) namedSegsLocked() map[uint64]bool {
	out := make(map[uint64]bool)
	for _, snap := range m.st.snapshots {
		for _, refs := range snap.Chunks {
			for _, r := range refs {
				out[r.Seg] = true
			}
		}
	}
	for _, vd := range m.st.vdisks {
		for i := range vd.meta.Chunks {
			for _, r := range vd.meta.Chunks[i].Cold {
				out[r.Seg] = true
			}
		}
	}
	return out
}
