package jindex

import (
	"sort"
	"testing"

	"ursa/internal/util"
)

func TestLLRBInsertScan(t *testing.T) {
	var tr llrb
	offs := []uint32{50, 10, 30, 70, 20, 60, 40}
	for _, o := range offs {
		tr.insert(MakeKV(o, 5, uint64(o)))
	}
	if tr.len() != len(offs) {
		t.Fatalf("len = %d", tr.len())
	}
	got := tr.toSlice()
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	for i, kv := range got {
		if kv.Off() != offs[i] {
			t.Errorf("slot %d = %d, want %d", i, kv.Off(), offs[i])
		}
	}
	if err := tr.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestLLRBReplaceSameOffset(t *testing.T) {
	var tr llrb
	tr.insert(MakeKV(10, 5, 1))
	tr.insert(MakeKV(10, 3, 2))
	if tr.len() != 1 {
		t.Fatalf("len = %d after replace", tr.len())
	}
	kv := tr.toSlice()[0]
	if kv.Len() != 3 || kv.JOff() != 2 {
		t.Errorf("replace kept old value: %v", kv)
	}
}

func TestLLRBDelete(t *testing.T) {
	var tr llrb
	r := util.NewRand(21)
	present := map[uint32]bool{}
	for i := 0; i < 500; i++ {
		off := uint32(r.Intn(100000))
		tr.insert(MakeKV(off, 1, 0))
		present[off] = true
	}
	if tr.len() != len(present) {
		t.Fatalf("len=%d, distinct=%d", tr.len(), len(present))
	}
	// Delete half.
	i := 0
	for off := range present {
		if i%2 == 0 {
			tr.delete(off)
			delete(present, off)
			if err := tr.checkInvariants(); err != nil {
				t.Fatalf("after delete: %v", err)
			}
		}
		i++
	}
	if tr.len() != len(present) {
		t.Fatalf("post-delete len=%d, want %d", tr.len(), len(present))
	}
	for _, kv := range tr.toSlice() {
		if !present[kv.Off()] {
			t.Fatalf("deleted key %d still present", kv.Off())
		}
	}
}

func TestLLRBDeleteMissing(t *testing.T) {
	var tr llrb
	tr.insert(MakeKV(10, 1, 0))
	tr.delete(99) // no-op
	if tr.len() != 1 {
		t.Errorf("len = %d", tr.len())
	}
	var empty llrb
	empty.delete(5) // no-op on empty tree
}

func TestLLRBScanFrom(t *testing.T) {
	var tr llrb
	for _, o := range []uint32{0, 10, 20, 30, 40} {
		tr.insert(MakeKV(o, 10, uint64(o)))
	}
	var got []uint32
	var it llrbIter
	it.init(tr.root, 25)
	for kv, ok := it.next(); ok; kv, ok = it.next() {
		got = append(got, kv.Off())
	}
	// Key [20,30) ends after 25, so it qualifies.
	want := []uint32{20, 30, 40}
	if len(got) != len(want) {
		t.Fatalf("walk from 25 = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walk from 25 = %v, want %v", got, want)
		}
	}
	// Past the last key the walk is empty.
	it.init(tr.root, 50)
	if kv, ok := it.next(); ok {
		t.Errorf("walk from 50 visited %v", kv)
	}
}

// toSlice returns all keys in offset order.
func (t *llrb) toSlice() []KV {
	var out []KV
	var it llrbIter
	it.init(t.root, 0)
	for kv, ok := it.next(); ok; kv, ok = it.next() {
		out = append(out, kv)
	}
	return out
}

func TestLLRBInvariantsUnderChurn(t *testing.T) {
	var tr llrb
	r := util.NewRand(31)
	live := map[uint32]bool{}
	for i := 0; i < 3000; i++ {
		off := uint32(r.Intn(5000))
		if r.Float64() < 0.6 {
			tr.insert(MakeKV(off, 1, 0))
			live[off] = true
		} else {
			tr.delete(off)
			delete(live, off)
		}
		if i%300 == 0 {
			if err := tr.checkInvariants(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			if tr.len() != len(live) {
				t.Fatalf("op %d: len=%d want %d", i, tr.len(), len(live))
			}
		}
	}
}
