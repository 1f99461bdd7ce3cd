// Package jindex implements URSA's journal index (§3.3): an in-memory,
// per-chunk range index mapping the chunk offset space onto the journal
// offset space.
//
// Keys are *composite*: a single entry covers the half-open sector interval
// [Off, Off+Len) and maps it contiguously to journal sectors starting at
// JOff. Entries never intersect, so the LESS relation (x.end <= y.off) is a
// total order and both range queries and range insertions run in O(log n +
// k).
//
// Storage is two-level, exactly as in the paper: a red-black tree absorbs
// insertions (fast insert, three pointers + color of overhead per entry),
// and a sorted array holds the bulk (8 bytes per entry, binary-searchable).
// The insert that fills the tree merges it into the array; queries consult
// the tree first and fall back to the array only for uncovered gaps, so
// stale array entries are masked rather than eagerly erased.
package jindex

import "fmt"

// Bit allocation of the packed 8-byte KV. A chunk is 64 MB = 2^17 sectors,
// so 17 bits address any chunk offset; 13 bits of length cover 4 MiB, far
// above the 64 KB journal-bypass threshold (longer ranges are split); 34
// bits of journal offset address 8 TiB of journal space in sectors.
const (
	offBits  = 17
	lenBits  = 13
	joffBits = 34

	// MaxOff is the exclusive upper bound of chunk sector offsets.
	MaxOff = 1 << offBits
	// MaxLen is the largest range length (in sectors) a single KV holds.
	MaxLen = 1<<lenBits - 1
	// MaxJOff is the exclusive upper bound of journal sector offsets;
	// the top value is reserved as the tombstone sentinel.
	MaxJOff = 1<<joffBits - 1

	// Tombstone marks a range as invalidated: it masks older mappings in
	// lower levels but is never returned from queries. Large writes that
	// bypass the journal insert tombstones to invalidate obsolete
	// journal appends (§3.2).
	Tombstone = MaxJOff
)

// KV is a packed composite key: offset in the top bits so that numeric
// order equals offset order.
//
//	bits 63..47: Off (17)   bits 46..34: Len (13)   bits 33..0: JOff (34)
type KV uint64

// MakeKV packs a mapping. It panics on out-of-range fields; callers split
// long ranges before packing.
func MakeKV(off, length uint32, joff uint64) KV {
	if off >= MaxOff || length == 0 || length > MaxLen || off+length > MaxOff {
		panic(fmt.Sprintf("jindex: bad range off=%d len=%d", off, length))
	}
	if joff > MaxJOff {
		panic(fmt.Sprintf("jindex: joff %d out of range", joff))
	}
	return KV(uint64(off)<<(lenBits+joffBits) | uint64(length)<<joffBits | joff)
}

// Off returns the first chunk sector covered.
func (k KV) Off() uint32 { return uint32(k >> (lenBits + joffBits)) }

// Len returns the covered length in sectors.
func (k KV) Len() uint32 { return uint32(k>>joffBits) & MaxLen }

// End returns the exclusive end sector.
func (k KV) End() uint32 { return k.Off() + k.Len() }

// JOff returns the mapped journal sector (or Tombstone).
func (k KV) JOff() uint64 { return uint64(k) & MaxJOff }

// IsTombstone reports whether the entry is an invalidation marker.
func (k KV) IsTombstone() bool { return k.JOff() == Tombstone }

// Less implements the paper's LESS relation: k is LESS than other iff k
// ends at or before other begins. Non-intersecting keys are totally
// ordered by it.
func (k KV) Less(other KV) bool { return k.End() <= other.Off() }

// Intersects reports whether the two ranges overlap.
func (k KV) Intersects(other KV) bool {
	return k.Off() < other.End() && other.Off() < k.End()
}

// slice returns the sub-mapping of k restricted to [off, end), which must
// intersect k. The journal offset advances by the amount trimmed from the
// front (tombstones stay tombstones).
func (k KV) slice(off, end uint32) KV {
	if off < k.Off() {
		off = k.Off()
	}
	if end > k.End() {
		end = k.End()
	}
	if k.IsTombstone() {
		return MakeKV(off, end-off, Tombstone)
	}
	return MakeKV(off, end-off, k.JOff()+uint64(off-k.Off()))
}

// String renders the mapping for debugging.
func (k KV) String() string {
	if k.IsTombstone() {
		return fmt.Sprintf("[%d,%d)→∅", k.Off(), k.End())
	}
	return fmt.Sprintf("[%d,%d)→%d", k.Off(), k.End(), k.JOff())
}

// Extent is a query result: a resolved region of the chunk offset space.
type Extent struct {
	Off  uint32 // first chunk sector
	Len  uint32 // sectors
	JOff uint64 // first journal sector
}

// End returns the exclusive end sector of the extent.
func (e Extent) End() uint32 { return e.Off + e.Len }
