package master

import (
	"time"

	"ursa/internal/opctx"
)

// Cold-tier garbage collection, the reconcile pass's last phase. A segment
// holds the extents of one chunk of one snapshot flush, and every table that
// names a segment names all of it: the snapshot's own table and each clone's
// verbatim copy. No entry trims a table extent by extent, so GC is one rule:
// delete every segment below the watermark that no table names, moving no
// extent and committing nothing. A feature that names part of a segment
// must bring compaction back with it.

// MetricGCSegmentsReclaimed counts segments deleted by GC.
const MetricGCSegmentsReclaimed = "gc-segments-reclaimed"

// collect deletes, within one window, every stored segment below wm that
// named does not hold; the next pass finds what the window does not reach.
// Only deletes that succeeded count: an ErrNotFound is an overlapping pass's.
func (m *Master) collect(window time.Duration, wm uint64, named map[uint64]bool) {
	op := opctx.New(m.cfg.Clock, window)
	defer op.Release()
	objs, err := m.coldCl.ListSegments(op)
	if err != nil {
		return
	}
	reclaimed := 0
	for _, obj := range objs {
		if obj.Seg < wm && !named[obj.Seg] && m.coldCl.DeleteSegment(op, obj.Seg) == nil {
			reclaimed++
		}
	}
	m.cfg.Metrics.Counter(MetricGCSegmentsReclaimed).Add(int64(reclaimed))
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
