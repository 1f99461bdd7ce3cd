package master

import (
	"errors"
	"fmt"

	"ursa/internal/bufpool"
	"ursa/internal/coldtier"
	"ursa/internal/opctx"
	"ursa/internal/util"
)

// Cold-tier garbage collection. Segments are immutable, so deleting
// snapshots (or materializing clones) strands dead extents inside live
// segments. The GC walks the store, deletes segments nothing references,
// and compacts mostly-dead ones by rewriting their surviving extents into a
// fresh segment — the classic log-structured cleaner, run from the master
// because only the master knows which extents metadata still references.

// Cold-tier GC observability.
const (
	// MetricGCSegmentsReclaimed counts segments deleted by GC (both fully
	// dead and compacted-away).
	MetricGCSegmentsReclaimed = "gc-segments-reclaimed"
	// MetricGCBytesRewritten counts live bytes GC copied into fresh
	// segments while compacting.
	MetricGCBytesRewritten = "gc-bytes-rewritten"
)

// gcLiveFraction is the live-bytes share below which GC rewrites a segment's
// surviving extents and reclaims it.
const gcLiveFraction = 0.5

// RunColdGC performs one garbage-collection pass over the object store and
// reports how many segments it reclaimed and how many live bytes it
// rewrote. It is the one way GC runs: whoever owns the cluster calls it when
// it wants a pass. Safe to call concurrently (passes serialize). A pass is
// skipped — not an error — while a snapshot flush is in flight, because the
// flush's fresh segments have no referencing metadata yet.
func (m *Master) RunColdGC() (reclaimed int, rewritten int64, err error) {
	if m.coldCl == nil {
		return 0, 0, nil
	}
	if !m.IsPrimary() {
		return 0, 0, m.errNotPrimary("cold gc")
	}
	m.gcMu.Lock()
	defer m.gcMu.Unlock()

	// The watermark rule: only segments with ID below nextSeg-as-of-now are
	// candidates. A flush or rewrite starting after this point allocates
	// IDs at or above the watermark; one started before holds
	// inflightFlushes, which skips the pass entirely.
	m.mu.Lock()
	if m.inflightFlushes > 0 {
		m.mu.Unlock()
		return 0, 0, nil
	}
	wm := m.st.nextSeg
	live := m.liveRefsBySegLocked()
	m.mu.Unlock()

	op := opctx.New(m.cfg.Clock, 240*m.cfg.RPCTimeout)
	defer op.Release()
	objs, err := m.coldCl.ListSegments(op)
	if err != nil {
		return 0, 0, err
	}
	for _, obj := range objs {
		if obj.Seg >= wm {
			continue // possibly a concurrent flush's segment: not ours to judge
		}
		refs := live[obj.Seg]
		liveBytes := coldtier.LiveBytes(refs)
		switch {
		case liveBytes == 0:
			// Nothing references the segment (deleted snapshot, fully
			// materialized clone, or an aborted flush's orphan).
			if derr := m.coldCl.DeleteSegment(op, obj.Seg); derr != nil && !errors.Is(derr, util.ErrNotFound) {
				continue
			}
			reclaimed++
		case obj.Size > 0 && float64(liveBytes)/float64(obj.Size) < gcLiveFraction:
			n, gerr := m.gcRewrite(op, obj.Seg, refs)
			if gerr != nil {
				// Partial progress is fine: the old segment stays intact and
				// referenced; a later pass retries. An orphaned half-written
				// replacement is below a future watermark with no refs, so
				// the liveBytes==0 arm above collects it.
				if errors.Is(gerr, util.ErrNotPrimary) {
					return reclaimed, rewritten, gerr
				}
				continue
			}
			reclaimed++
			rewritten += n
		}
	}
	if reg := m.cfg.Metrics; reclaimed > 0 {
		reg.Counter(MetricGCSegmentsReclaimed).Add(int64(reclaimed))
		if rewritten > 0 {
			reg.Counter(MetricGCBytesRewritten).Add(rewritten)
		}
	}
	return reclaimed, rewritten, nil
}

// liveRefsBySegLocked indexes every referenced cold extent by segment,
// deduplicated by location — clones share their snapshot's refs verbatim,
// and counting a shared extent twice would overstate segment liveness
// (m.mu held).
func (m *Master) liveRefsBySegLocked() map[uint64][]coldtier.ExtentRef {
	type loc struct {
		seg uint64
		off int64
		n   int64
	}
	seen := make(map[loc]bool)
	out := make(map[uint64][]coldtier.ExtentRef)
	add := func(refs []coldtier.ExtentRef) {
		for _, r := range refs {
			k := loc{r.Seg, r.SegOff, r.Len}
			if seen[k] {
				continue
			}
			seen[k] = true
			out[r.Seg] = append(out[r.Seg], r)
		}
	}
	for _, snap := range m.st.snapshots {
		for _, refs := range snap.Chunks {
			add(refs)
		}
	}
	for _, vd := range m.st.vdisks {
		for i := range vd.meta.Chunks {
			add(vd.meta.Chunks[i].Cold)
		}
	}
	return out
}

// gcRewrite compacts one mostly-dead segment: copies its live extents into
// a freshly allocated segment range, atomically remaps every referencing
// snapshot extent and chunk cold ref (replicated), and deletes the old
// segment. Returns the live bytes moved.
func (m *Master) gcRewrite(op *opctx.Op, oldSeg uint64, refs []coldtier.ExtentRef) (int64, error) {
	m.mu.Lock()
	lo, err := m.allocSegsLocked(coldtier.SegsPerChunk)
	m.mu.Unlock()
	if err != nil {
		return 0, err
	}

	w := coldtier.NewSegWriter(m.coldCl, op, lo, lo+coldtier.SegsPerChunk)
	for _, r := range refs {
		data, err := m.fetchLiveExtent(op, r)
		if err != nil {
			return 0, err
		}
		err = w.Add(r.ChunkOff, data)
		bufpool.Put(data)
		if err != nil {
			return 0, err
		}
	}
	newRefs, err := w.Close()
	if err != nil {
		return 0, err
	}
	// Live extents are never all-zero (zero extents are suppressed at flush
	// time and a dead ref would not be in refs), so the writer emits one new
	// ref per input in order.
	if len(newRefs) != len(refs) {
		return 0, fmt.Errorf("master: gc rewrite of segment %#x: %d refs in, %d out", oldSeg, len(refs), len(newRefs))
	}
	moves := make([]segMove, len(refs))
	for i, r := range refs {
		moves[i] = segMove{Seg: r.Seg, SegOff: r.SegOff, NewSeg: newRefs[i].Seg, NewSegOff: newRefs[i].SegOff}
	}

	// A master deposed mid-rewrite is refused and drops everything: the new
	// segments carry no references and sit below the new primary's
	// replicated watermark, so its GC deletes them.
	m.mu.Lock()
	err = m.commitLocked(entry{SegRemap: &entrySegRemap{Moves: moves}})
	m.mu.Unlock()
	if err != nil {
		return 0, err
	}

	// Delete the old segment last: the object store drains in-flight reads,
	// and any fetch that raced the remap with stale refs gets ErrNotFound
	// and refreshes from the (already remapped) metadata.
	if err := m.coldCl.DeleteSegment(op, oldSeg); err != nil && !errors.Is(err, util.ErrNotFound) {
		return coldtier.LiveBytes(refs), err
	}
	return coldtier.LiveBytes(refs), nil
}

// fetchLiveExtent reads one extent for compaction, retrying transient
// transfer corruption (CRC mismatch) a few times.
func (m *Master) fetchLiveExtent(op *opctx.Op, r coldtier.ExtentRef) ([]byte, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var data []byte
		data, err = m.coldCl.GetExtent(op, r)
		if err == nil {
			return data, nil
		}
		if !errors.Is(err, util.ErrCorrupt) {
			return nil, err
		}
	}
	return nil, err
}
