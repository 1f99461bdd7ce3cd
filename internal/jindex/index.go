package jindex

import (
	"runtime"
	"sync"
)

// Index is the per-chunk two-level journal index. All offsets and lengths
// are in sectors. It is safe for concurrent use; queries and updates sit on
// the journal read/write critical path (§3.3), so reads take a shared lock
// and the tree→array merge runs in the background.
type Index struct {
	mu     sync.RWMutex
	tree   llrb // level 0: write cache, newest entries
	frozen []KV // level 0.5: snapshot being merged, masks arr
	arr    []KV // level 1: sorted array, oldest entries

	autoMergeAt int // tree size that triggers a background merge; 0 = manual
	merging     bool

	// Write-side scratch, touched only under the write lock.
	doomed []KV     // insertOneLocked's intersection list
	insIt  llrbIter // insertOneLocked's tree scan

	// Merge scratch ping-pong: each merge retires the level slices it
	// replaces and the next merge writes into them. Safe because readers
	// never retain a level slice past their read lock, so a slice retired
	// one full merge ago has no live aliases.
	arrScratch  []KV // destination for the next tree+arr merge
	snapScratch []KV // destination for the next freeze snapshot
}

// New returns an empty index that merges the tree into the array in the
// background once the tree exceeds autoMergeAt entries. autoMergeAt <= 0
// disables automatic merging (callers then use MergeNow, as the benchmarks
// do to reproduce the paper's 100k-tree/600k-array split).
func New(autoMergeAt int) *Index {
	return &Index{autoMergeAt: autoMergeAt}
}

// Insert records that chunk sectors [off, off+length) now live at journal
// sector joff. Obsolete mappings inside the range are invalidated. Ranges
// longer than MaxLen are split across several composite keys.
func (ix *Index) Insert(off, length uint32, joff uint64) {
	ix.update(off, length, joff)
}

// Invalidate erases any journal mappings inside [off, off+length): the
// write went directly to the backup disk (journal bypass) so journal data
// for the range is stale (§3.2).
func (ix *Index) Invalidate(off, length uint32) {
	ix.update(off, length, Tombstone)
}

func (ix *Index) update(off, length uint32, joff uint64) {
	if length == 0 {
		return
	}
	ix.mu.Lock()
	ix.insertRangeLocked(off, length, joff)
	trigger := ix.maybeTriggerMergeLocked()
	ix.mu.Unlock()
	if trigger {
		go ix.mergeAsync()
	}
}

// InsertBatch applies several inserts in order under one lock acquisition —
// the journal's group-commit flush indexes a whole batch of records at
// once. Later entries win over earlier ones on overlap, matching a sequence
// of Insert calls.
func (ix *Index) InsertBatch(entries []Extent) {
	if len(entries) == 0 {
		return
	}
	ix.mu.Lock()
	for _, e := range entries {
		ix.insertRangeLocked(e.Off, e.Len, e.JOff)
	}
	trigger := ix.maybeTriggerMergeLocked()
	ix.mu.Unlock()
	if trigger {
		go ix.mergeAsync()
	}
}

// insertRangeLocked splits one logical insert across composite keys of at
// most MaxLen sectors each.
func (ix *Index) insertRangeLocked(off, length uint32, joff uint64) {
	for length > 0 {
		n := length
		if n > MaxLen {
			n = MaxLen
		}
		ix.insertOneLocked(MakeKV(off, n, joffAdvance(joff, 0)))
		if joff != Tombstone {
			joff += uint64(n)
		}
		off += n
		length -= n
	}
}

// maybeTriggerMergeLocked claims the background-merge slot when the tree
// has outgrown the threshold; the caller spawns mergeAsync after unlocking.
func (ix *Index) maybeTriggerMergeLocked() bool {
	trigger := ix.autoMergeAt > 0 && ix.tree.len() >= ix.autoMergeAt && !ix.merging
	if trigger {
		ix.merging = true
	}
	return trigger
}

func joffAdvance(joff uint64, by uint32) uint64 {
	if joff == Tombstone {
		return Tombstone
	}
	return joff + uint64(by)
}

// insertOneLocked erases tree intersections (keeping trimmed remainders)
// and inserts kv. Lower levels are masked at query time and dropped at
// merge time, exactly as the paper describes. A tombstone exists only to
// mask them: where neither lower level maps any of its range it is not
// inserted, so an index that replay keeps drained shrinks back to nothing
// (and its nodes to the free list) instead of filling up with markers.
func (ix *Index) insertOneLocked(kv KV) {
	doomed := ix.doomed[:0]
	ix.insIt.init(ix.tree.root, kv.Off())
	for {
		k, ok := ix.insIt.next()
		if !ok || k.Off() >= kv.End() {
			break
		}
		doomed = append(doomed, k)
	}
	for _, k := range doomed {
		ix.tree.delete(k.Off())
		if k.Off() < kv.Off() {
			ix.tree.insert(k.slice(k.Off(), kv.Off()))
		}
		if k.End() > kv.End() {
			ix.tree.insert(k.slice(kv.End(), k.End()))
		}
	}
	if !kv.IsTombstone() || intersectsSorted(ix.frozen, kv) || intersectsSorted(ix.arr, kv) {
		ix.tree.insert(kv)
	}
	ix.doomed = doomed[:0]
}

// intersectsSorted reports whether the sorted level a holds an entry
// overlapping kv's range.
func intersectsSorted(a []KV, kv KV) bool {
	i := searchEndGT(a, kv.Off())
	return i < len(a) && a[i].Off() < kv.End()
}

// span is a half-open sector interval used during query resolution.
type span struct{ off, end uint32 }

// queryScratch carries one query's resolution state: the gap ping-pong
// buffers and the tree iterator. Pooled so steady-state queries allocate
// nothing beyond the caller's destination slice.
type queryScratch struct {
	cur, next []span
	it        llrbIter
}

var queryPool = sync.Pool{New: func() any { return new(queryScratch) }}

// Query resolves [off, off+length) against all levels, newest first, and
// returns the mapped extents sorted by offset. Regions with no journal data
// (never written, or invalidated by a tombstone) are simply absent; Holes
// computes them when the caller needs to fall back to the backup disk.
func (ix *Index) Query(off, length uint32) []Extent {
	return ix.QueryInto(nil, off, length)
}

// QueryInto is the allocation-free form of Query: it appends the resolved
// extents to dst and returns the extended slice, sorted by offset within
// the appended region. With a dst whose capacity has stabilized it performs
// no allocation, which is what keeps the journal read path off the heap.
func (ix *Index) QueryInto(dst []Extent, off, length uint32) []Extent {
	if length == 0 {
		return dst
	}
	base := len(dst)
	qs := queryPool.Get().(*queryScratch)
	gaps := append(qs.cur[:0], span{off, off + length})
	spare := qs.next[:0]

	ix.mu.RLock()
	// Level 0: the write-cache tree, newest entries.
	if ix.tree.root != nil {
		next := spare
		for _, g := range gaps {
			pos := g.off
			qs.it.init(ix.tree.root, g.off)
			for {
				k, ok := qs.it.next()
				if !ok || k.Off() >= g.end {
					break
				}
				dst, next, pos = emitPiece(dst, next, pos, g, k)
			}
			if pos < g.end {
				next = append(next, span{pos, g.end})
			}
		}
		gaps, spare = next, gaps[:0]
	}
	// Levels 0.5 and 1: the frozen snapshot, then the sorted array.
	dst, gaps, spare = resolveSorted(dst, gaps, spare, ix.frozen)
	dst, gaps, spare = resolveSorted(dst, gaps, spare, ix.arr)
	ix.mu.RUnlock()

	qs.cur, qs.next = gaps[:0], spare[:0]
	queryPool.Put(qs)
	sortExtents(dst[base:])
	return dst
}

// emitPiece resolves one key overlapping gap g at cursor pos: the uncovered
// prefix becomes a surviving gap, the covered piece an extent (unless
// tombstoned), and the cursor advances past it.
func emitPiece(dst []Extent, next []span, pos uint32, g span, k KV) ([]Extent, []span, uint32) {
	piece := k.slice(g.off, g.end)
	if piece.Off() > pos {
		next = append(next, span{pos, piece.Off()})
	}
	if !piece.IsTombstone() {
		dst = append(dst, Extent{piece.Off(), piece.Len(), piece.JOff()})
	}
	return dst, next, piece.End()
}

// resolveSorted resolves the remaining gaps against one sorted level,
// appending mapped extents to dst and surviving gaps into spare. It returns
// the new gap list plus the retired one for reuse by the next level.
func resolveSorted(dst []Extent, gaps, spare []span, a []KV) ([]Extent, []span, []span) {
	if len(gaps) == 0 || len(a) == 0 {
		return dst, gaps, spare
	}
	next := spare[:0]
	for _, g := range gaps {
		pos := g.off
		for i := searchEndGT(a, g.off); i < len(a) && a[i].Off() < g.end; i++ {
			dst, next, pos = emitPiece(dst, next, pos, g, a[i])
		}
		if pos < g.end {
			next = append(next, span{pos, g.end})
		}
	}
	return dst, next, gaps
}

// searchEndGT returns the index of the first entry whose End() > off. Ends
// are strictly increasing (sorted, non-intersecting level), so this is a
// plain binary search — hand-rolled to avoid sort.Search's closure on the
// read hot path.
func searchEndGT(a []KV, off uint32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid].End() > off {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// sortExtents sorts by offset without sort.Slice's closure and interface
// boxing. Offsets within one query result are unique (levels resolve
// disjoint gap pieces) and arrive nearly sorted, so insertion sort is the
// common case; larger runs go through median-of-three quicksort.
func sortExtents(a []Extent) {
	for len(a) > 32 {
		mid := len(a) / 2
		last := len(a) - 1
		if a[mid].Off < a[0].Off {
			a[0], a[mid] = a[mid], a[0]
		}
		if a[last].Off < a[0].Off {
			a[0], a[last] = a[last], a[0]
		}
		if a[last].Off < a[mid].Off {
			a[mid], a[last] = a[last], a[mid]
		}
		pivot := a[mid].Off
		i, j := 0, last
		for i <= j {
			for a[i].Off < pivot {
				i++
			}
			for a[j].Off > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// Recurse into the smaller half, loop on the larger.
		if j+1 < len(a)-i {
			sortExtents(a[:j+1])
			a = a[i:]
		} else {
			sortExtents(a[i:])
			a = a[:j+1]
		}
	}
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j].Off < a[j-1].Off; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// Holes returns the sub-ranges of [off, off+length) not covered by extents
// (which must be sorted, as returned by Query). Callers read holes from the
// backup disk during recovery and temporary-primary reads.
func Holes(off, length uint32, extents []Extent) []Extent {
	return HolesInto(nil, off, length, extents)
}

// HolesInto is the allocation-free form of Holes: it appends the uncovered
// sub-ranges to dst and returns the extended slice.
func HolesInto(dst []Extent, off, length uint32, extents []Extent) []Extent {
	pos := off
	end := off + length
	for _, e := range extents {
		if e.Off > pos {
			dst = append(dst, Extent{Off: pos, Len: e.Off - pos})
		}
		if e.End() > pos {
			pos = e.End()
		}
	}
	if pos < end {
		dst = append(dst, Extent{Off: pos, Len: end - pos})
	}
	return dst
}

// MergeNow synchronously merges the tree (and any frozen snapshot) into the
// sorted array. Tombstones are applied and dropped.
func (ix *Index) MergeNow() {
	// Wait for any in-flight background merge, then claim the merge slot.
	ix.mu.Lock()
	for ix.merging {
		ix.mu.Unlock()
		runtime.Gosched()
		ix.mu.Lock()
	}
	ix.merging = true
	ix.mu.Unlock()
	ix.mergeAsync()
}

// mergeAsync performs one merge; the caller must have set ix.merging.
func (ix *Index) mergeAsync() {
	ix.mu.Lock()
	ix.freezeLocked()
	frozen, arr := ix.frozen, ix.arr
	// The destination is the arr retired by the merge before last; nothing
	// live aliases it, while the current frozen and arr slices may still be
	// read concurrently and must not be written.
	dst := ix.arrScratch[:0]
	ix.arrScratch = nil
	ix.mu.Unlock()

	merged := mergeLevelsInto(dst, frozen, arr)

	ix.mu.Lock()
	ix.arrScratch = ix.arr[:0]     // retire the replaced arr for the next merge
	ix.snapScratch = ix.frozen[:0] // retire the snapshot for the next freeze
	ix.arr = merged
	ix.frozen = nil
	ix.merging = false
	ix.mu.Unlock()
}

// freezeLocked moves the tree into the frozen snapshot. Any existing frozen
// snapshot is first folded in (callers ensure no concurrent merge).
func (ix *Index) freezeLocked() {
	snap := ix.tree.toSliceInto(ix.snapScratch[:0])
	ix.snapScratch = nil // ownership moves to the frozen level
	if len(ix.frozen) > 0 {
		snap = mergeLevels(snap, ix.frozen)
	}
	ix.frozen = snap
	ix.tree.releaseNodes()
}

// mergeLevels merges a newer sorted level over an older one: newer entries
// win, older entries are trimmed to the uncovered gaps, and tombstones are
// dropped after masking. Both inputs are sorted and non-intersecting and
// are not modified (readers may hold references to them); so is the result.
func mergeLevels(newer, older []KV) []KV {
	return mergeLevelsInto(make([]KV, 0, len(newer)+len(older)), newer, older)
}

// mergeLevelsInto is mergeLevels appending into out, which must not alias
// either input (the index's retired-scratch ping-pong guarantees that).
func mergeLevelsInto(out, newer, older []KV) []KV {
	j := 0
	var pending KV // trimmed tail of older[j-1], valid when pendingOK
	pendingOK := false

	nextOlder := func() (KV, bool) {
		if pendingOK {
			pendingOK = false
			return pending, true
		}
		if j < len(older) {
			k := older[j]
			j++
			return k, true
		}
		return 0, false
	}
	pushBack := func(k KV) { pending, pendingOK = k, true }

	emitOlderUpTo := func(limit uint32) {
		for {
			k, ok := nextOlder()
			if !ok {
				return
			}
			if k.Off() >= limit {
				pushBack(k)
				return
			}
			if k.End() <= limit {
				out = append(out, k)
				continue
			}
			// Straddles the limit: emit the front piece, keep the rest.
			out = append(out, k.slice(k.Off(), limit))
			pushBack(k.slice(limit, k.End()))
			return
		}
	}
	skipOlderUpTo := func(limit uint32) {
		for {
			k, ok := nextOlder()
			if !ok {
				return
			}
			if k.Off() >= limit {
				pushBack(k)
				return
			}
			if k.End() > limit {
				pushBack(k.slice(limit, k.End()))
				return
			}
		}
	}
	for _, nk := range newer {
		emitOlderUpTo(nk.Off())
		skipOlderUpTo(nk.End())
		if !nk.IsTombstone() {
			out = append(out, nk)
		}
	}
	emitOlderUpTo(MaxOff)
	return out
}

// Stats describes index occupancy and memory footprint.
type Stats struct {
	TreeLen   int
	FrozenLen int
	ArrLen    int
	// MemoryBytes estimates resident size: 8 bytes per array/frozen entry
	// plus tree node overhead (key + two child pointers + color word), the
	// imbalance that motivates the two-level design.
	MemoryBytes int64
}

// Stats returns an occupancy snapshot.
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	const treeNodeBytes = 8 + 2*8 + 8
	return Stats{
		TreeLen:     ix.tree.len(),
		FrozenLen:   len(ix.frozen),
		ArrLen:      len(ix.arr),
		MemoryBytes: int64(ix.tree.len())*treeNodeBytes + int64(len(ix.frozen)+len(ix.arr))*8,
	}
}

// Len returns the total number of live entries across levels (stale masked
// array entries included until merged away).
func (ix *Index) Len() int {
	s := ix.Stats()
	return s.TreeLen + s.FrozenLen + s.ArrLen
}

// Clear empties the index (used when a journal is truncated after replay).
func (ix *Index) Clear() {
	ix.mu.Lock()
	ix.tree.releaseNodes()
	ix.frozen = nil
	ix.arr = nil
	ix.mu.Unlock()
}
