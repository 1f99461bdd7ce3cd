package jindex

// Index is the per-chunk two-level journal index. All offsets and lengths
// are in sectors. It is not safe for concurrent use: its owner serializes
// every call (the journal set holds its lock across each), so a query reads
// both levels and a merge rewrites them with no lock of the index's own.
type Index struct {
	tree llrb // level 0: write cache, newest entries
	arr  []KV // level 1: sorted array, oldest entries

	autoMergeAt int // tree size whose insert merges; 0 = manual

	// Scratch, reused by every call: the intersections an insert erases, the
	// gaps a query leaves in the tree, the tree walk of all three, and the
	// array a merge retired, which the next merge writes into.
	doomed []KV
	gaps   []span
	it     llrbIter
	spare  []KV
}

// New returns an empty index that merges the tree into the array on the
// insert that takes the tree to autoMergeAt entries. autoMergeAt <= 0
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

// update splits one logical insert across composite keys of at most MaxLen
// sectors each, then merges if the tree has filled.
func (ix *Index) update(off, length uint32, joff uint64) {
	for length > 0 {
		n := min(length, MaxLen)
		ix.insertOne(MakeKV(off, n, joff))
		if joff != Tombstone {
			joff += uint64(n)
		}
		off += n
		length -= n
	}
	if ix.autoMergeAt > 0 && ix.tree.len() >= ix.autoMergeAt {
		ix.MergeNow()
	}
}

// insertOne erases tree intersections (keeping trimmed remainders) and
// inserts kv. The array is masked at query time and trimmed at merge time,
// exactly as the paper describes. A tombstone exists only to mask it: where
// the array maps none of its range it is not inserted, so an index that
// replay keeps drained shrinks back to nothing (and its nodes to the free
// list) instead of filling up with markers.
func (ix *Index) insertOne(kv KV) {
	doomed := ix.doomed[:0]
	ix.it.init(ix.tree.root, kv.Off())
	for k, ok := ix.it.next(); ok && k.Off() < kv.End(); k, ok = ix.it.next() {
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
	if !kv.IsTombstone() || intersectsSorted(ix.arr, kv) {
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

// Query resolves [off, off+length) against both levels, newest first, and
// returns the mapped extents sorted by offset. Regions with no journal data
// (never written, or invalidated by a tombstone) are simply absent; HolesInto
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
	// The tree: each key resolves its piece of the range; what no key
	// covers is left as gaps for the array.
	gaps := ix.gaps[:0]
	pos, end := off, off+length
	ix.it.init(ix.tree.root, off)
	for k, ok := ix.it.next(); ok && k.Off() < end; k, ok = ix.it.next() {
		piece := k.slice(off, end)
		if piece.Off() > pos {
			gaps = append(gaps, span{pos, piece.Off()})
		}
		dst = appendMapped(dst, piece)
		pos = piece.End()
	}
	if pos < end {
		gaps = append(gaps, span{pos, end})
	}
	// The array, in the gaps: whatever it maps there is the answer.
	for _, g := range gaps {
		for i := searchEndGT(ix.arr, g.off); i < len(ix.arr) && ix.arr[i].Off() < g.end; i++ {
			dst = appendMapped(dst, ix.arr[i].slice(g.off, g.end))
		}
	}
	ix.gaps = gaps[:0]
	sortExtents(dst[base:])
	return dst
}

// appendMapped appends k's mapping to dst; a tombstone maps nothing.
func appendMapped(dst []Extent, k KV) []Extent {
	if k.IsTombstone() {
		return dst
	}
	return append(dst, Extent{k.Off(), k.Len(), k.JOff()})
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

// HolesInto appends the sub-ranges of [off, off+length) not covered by
// extents (which must be sorted, as QueryInto returns them) to dst and
// returns the extended slice. Callers read holes from the backup disk during
// recovery and temporary-primary reads.
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

// MergeNow folds the tree into the sorted array: tree entries win, array
// entries are trimmed to the gaps between them, and tombstones are dropped
// after masking. The merged array is written into the one the previous
// merge retired, so merging allocates nothing once both have grown.
func (ix *Index) MergeNow() {
	out, old := ix.spare[:0], ix.arr
	i := 0
	ix.it.init(ix.tree.root, 0)
	for k, ok := ix.it.next(); ok; k, ok = ix.it.next() {
		for ; i < len(old) && old[i].Off() < k.End(); i++ {
			o := old[i]
			if o.Off() < k.Off() {
				out = append(out, o.slice(o.Off(), k.Off()))
			}
			if o.End() > k.End() {
				// Keep what is left past k for the next key; old is retired
				// by this merge, so it is the index's to overwrite.
				old[i] = o.slice(k.End(), o.End())
				break
			}
		}
		if !k.IsTombstone() {
			out = append(out, k)
		}
	}
	out = append(out, old[i:]...)
	ix.spare, ix.arr = old[:0], out
	ix.tree.releaseNodes()
}

// Stats describes index occupancy and memory footprint.
type Stats struct {
	TreeLen int
	ArrLen  int
	// MemoryBytes estimates resident size: 8 bytes per array entry plus tree
	// node overhead (key + two child pointers + color word), the imbalance
	// that motivates the two-level design.
	MemoryBytes int64
}

// Stats returns an occupancy snapshot.
func (ix *Index) Stats() Stats {
	const treeNodeBytes = 8 + 2*8 + 8
	return Stats{
		TreeLen:     ix.tree.len(),
		ArrLen:      len(ix.arr),
		MemoryBytes: int64(ix.tree.len())*treeNodeBytes + int64(len(ix.arr))*8,
	}
}
