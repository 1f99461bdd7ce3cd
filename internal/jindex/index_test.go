package jindex

import (
	"testing"

	"ursa/internal/util"
)

func TestIndexBasicInsertQuery(t *testing.T) {
	ix := New(0)
	ix.Insert(100, 50, 1000)
	got := ix.Query(100, 50)
	if len(got) != 1 || got[0].Off != 100 || got[0].Len != 50 || got[0].JOff != 1000 {
		t.Fatalf("Query = %v", got)
	}
	// Partial query maps with adjusted journal offset (paper Fig 4).
	got = ix.Query(120, 10)
	if len(got) != 1 || got[0].Off != 120 || got[0].Len != 10 || got[0].JOff != 1020 {
		t.Fatalf("partial Query = %v", got)
	}
	// Miss.
	if got = ix.Query(0, 50); len(got) != 0 {
		t.Fatalf("miss Query = %v", got)
	}
}

func TestIndexOverwriteInvalidatesStale(t *testing.T) {
	ix := New(0)
	ix.Insert(100, 50, 1000)
	ix.Insert(120, 10, 5000) // overwrite middle
	got := ix.Query(100, 50)
	if len(got) != 3 {
		t.Fatalf("Query after overwrite = %v", got)
	}
	checks := []Extent{
		{100, 20, 1000},
		{120, 10, 5000},
		{130, 20, 1030},
	}
	for i, want := range checks {
		if got[i] != want {
			t.Errorf("extent %d = %v, want %v", i, got[i], want)
		}
	}
}

func TestIndexInvalidate(t *testing.T) {
	ix := New(0)
	ix.Insert(0, 100, 0)
	ix.Invalidate(25, 50)
	got := ix.Query(0, 100)
	if len(got) != 2 {
		t.Fatalf("Query after invalidate = %v", got)
	}
	if got[0] != (Extent{0, 25, 0}) || got[1] != (Extent{75, 25, 75}) {
		t.Fatalf("extents = %v", got)
	}
	holes := HolesInto(nil, 0, 100, got)
	if len(holes) != 1 || holes[0].Off != 25 || holes[0].Len != 50 {
		t.Fatalf("holes = %v", holes)
	}
}

func TestIndexMaskingAcrossLevels(t *testing.T) {
	ix := New(0)
	ix.Insert(0, 100, 0)
	ix.MergeNow() // push to array
	if s := ix.Stats(); s.ArrLen != 1 || s.TreeLen != 0 {
		t.Fatalf("stats after merge = %+v", s)
	}
	// New tree entry masks the array.
	ix.Insert(40, 20, 9000)
	got := ix.Query(0, 100)
	want := []Extent{{0, 40, 0}, {40, 20, 9000}, {60, 40, 60}}
	if len(got) != len(want) {
		t.Fatalf("Query = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("extent %d = %v, want %v", i, got[i], want[i])
		}
	}
	// Tombstone in tree masks array too.
	ix.Invalidate(0, 10)
	got = ix.Query(0, 10)
	if len(got) != 0 {
		t.Fatalf("tombstone did not mask array: %v", got)
	}
	// After merge the mask is applied physically.
	ix.MergeNow()
	got = ix.Query(0, 100)
	if len(got) != 3 || got[0] != (Extent{10, 30, 10}) {
		t.Fatalf("post-merge Query = %v", got)
	}
}

func TestIndexLongRangeSplit(t *testing.T) {
	ix := New(0)
	// A range longer than MaxLen must be split transparently.
	ix.Insert(0, 3*MaxLen+5, 100)
	got := ix.Query(0, 3*MaxLen+5)
	var covered uint32
	expectJ := uint64(100)
	for _, e := range got {
		if e.Off != covered {
			t.Fatalf("gap at %d: %v", covered, got)
		}
		if e.JOff != expectJ {
			t.Fatalf("joff at %d = %d, want %d", e.Off, e.JOff, expectJ)
		}
		covered += e.Len
		expectJ += uint64(e.Len)
	}
	if covered != 3*MaxLen+5 {
		t.Fatalf("covered %d of %d", covered, 3*MaxLen+5)
	}
}

func TestIndexZeroLength(t *testing.T) {
	ix := New(0)
	ix.Insert(10, 0, 5) // no-op
	if got := ix.Query(0, 0); got != nil {
		t.Errorf("Query(len=0) = %v", got)
	}
	if s := ix.Stats(); s.TreeLen+s.ArrLen != 0 {
		t.Errorf("stats = %+v", s)
	}
}

// modelIndex is a naive per-sector oracle for property testing.
type modelIndex map[uint32]uint64

func (m modelIndex) insert(off, length uint32, joff uint64) {
	for i := uint32(0); i < length; i++ {
		m[off+i] = joff + uint64(i)
	}
}

func (m modelIndex) invalidate(off, length uint32) {
	for i := uint32(0); i < length; i++ {
		delete(m, off+i)
	}
}

func (m modelIndex) query(off, length uint32) []Extent {
	var out []Extent
	for i := uint32(0); i < length; i++ {
		j, ok := m[off+i]
		if !ok {
			continue
		}
		if n := len(out); n > 0 {
			prev := &out[n-1]
			if prev.Off+prev.Len == off+i && prev.JOff+uint64(prev.Len) == j {
				prev.Len++
				continue
			}
		}
		out = append(out, Extent{off + i, 1, j})
	}
	return out
}

func extentsEqual(a, b []Extent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIndexAgainstModel is the core correctness property: after an
// arbitrary interleaving of inserts, invalidations, merges, and queries,
// the index must agree sector-for-sector with a naive oracle — merged by
// hand only, and also on every insert that fills a 16-entry tree.
func TestIndexAgainstModel(t *testing.T) {
	for _, autoMergeAt := range []int{0, 16} {
		checkAgainstModel(t, New(autoMergeAt))
	}
}

func checkAgainstModel(t *testing.T, ix *Index) {
	const space = 4096 // small key space to force heavy overlap
	model := modelIndex{}
	r := util.NewRand(99)
	var joff uint64 = 1 // avoid 0 to catch zero-default bugs

	for op := 0; op < 5000; op++ {
		off := uint32(r.Intn(space - 64))
		length := uint32(r.Intn(64) + 1)
		switch {
		case r.Float64() < 0.5:
			ix.Insert(off, length, joff)
			model.insert(off, length, joff)
			joff += uint64(length)
		case r.Float64() < 0.3:
			ix.Invalidate(off, length)
			model.invalidate(off, length)
		case r.Float64() < 0.1:
			ix.MergeNow()
		default:
			got := ix.Query(off, length)
			want := model.query(off, length)
			if !extentsEqual(got, want) {
				t.Fatalf("merge at %d, op %d: Query(%d,%d)\n got %v\nwant %v",
					ix.autoMergeAt, op, off, length, got, want)
			}
		}
	}
	// Full sweep at the end, before and after a final merge.
	for _, phase := range []string{"pre-merge", "post-merge"} {
		got := ix.Query(0, space)
		want := model.query(0, space)
		if !extentsEqual(got, want) {
			t.Fatalf("merge at %d, %s full sweep mismatch:\n got %d extents\nwant %d extents",
				ix.autoMergeAt, phase, len(got), len(want))
		}
		ix.MergeNow()
	}
}

// TestIndexAutoMerge checks that the insert taking the tree to the
// threshold merges it into the array before it returns, and that one
// below the threshold does not.
func TestIndexAutoMerge(t *testing.T) {
	ix := New(8)
	for i := uint32(0); i < 64; i++ {
		ix.Insert(i*10, 5, uint64(i*10))
		s := ix.Stats()
		if want := int(i+1) % 8; s.TreeLen != want || s.ArrLen != int(i+1)-want {
			t.Fatalf("after insert %d: %+v, want %d in the tree", i, s, want)
		}
	}
	// A tombstone over mapped sectors counts too.
	for i := uint32(0); i < 8; i++ {
		ix.Invalidate(i*10, 1)
	}
	if s := ix.Stats(); s.TreeLen != 0 || s.ArrLen != 64 {
		t.Fatalf("after 8 invalidations: %+v", s)
	}
	got := ix.Query(0, 640)
	if len(got) != 64 || got[0] != (Extent{1, 4, 1}) {
		t.Fatalf("after auto-merge: %d extents, first %v", len(got), got[0])
	}
}

func TestIndexMemoryAccounting(t *testing.T) {
	ix := New(0)
	for i := uint32(0); i < 100; i++ {
		ix.Insert(i*10, 5, uint64(i))
	}
	before := ix.Stats()
	if before.TreeLen != 100 || before.ArrLen != 0 {
		t.Fatalf("stats = %+v", before)
	}
	ix.MergeNow()
	after := ix.Stats()
	if after.TreeLen != 0 || after.ArrLen != 100 {
		t.Fatalf("post-merge stats = %+v", after)
	}
	// The array representation must be smaller: 8 bytes vs node overhead.
	if after.MemoryBytes >= before.MemoryBytes {
		t.Errorf("merge did not shrink memory: %d -> %d",
			before.MemoryBytes, after.MemoryBytes)
	}
}

func TestHolesEdgeCases(t *testing.T) {
	if h := HolesInto(nil, 10, 20, nil); len(h) != 1 || h[0].Off != 10 || h[0].Len != 20 {
		t.Errorf("Holes with no extents = %v", h)
	}
	full := []Extent{{10, 20, 0}}
	if h := HolesInto(nil, 10, 20, full); len(h) != 0 {
		t.Errorf("Holes with full coverage = %v", h)
	}
}
