package bufpool

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
	"weak"
)

func TestLeaseReturnRecycles(t *testing.T) {
	start := InUse()
	b := Get(4096)
	if len(b) != 4096 {
		t.Fatalf("len = %d, want 4096", len(b))
	}
	if got := InUse() - start; got != 1 {
		t.Fatalf("InUse delta after Get = %d, want 1", got)
	}
	ptr0, _ := base(b)
	Put(b)
	if got := InUse() - start; got != 0 {
		t.Fatalf("InUse delta after Put = %d, want 0", got)
	}
	// The very next same-class Get must reuse the returned buffer (LIFO).
	b2 := Get(2048)
	ptr1, _ := base(b2)
	if ptr0 != ptr1 {
		t.Fatalf("second Get did not recycle: %x vs %x", ptr0, ptr1)
	}
	if len(b2) != 2048 || cap(b2) != 4096 {
		t.Fatalf("recycled lease len=%d cap=%d, want 2048/4096", len(b2), cap(b2))
	}
	Put(b2)
}

// dropLease leases an n-byte buffer and drops it without Put, keeping only a
// weak pointer to it.
//
//go:noinline
func dropLease(n int) weak.Pointer[byte] {
	return weak.Make(unsafe.SliceData(Get(n)))
}

// TestDroppedLeaseStaysLeased: a lease its holders drop without Put is kept
// alive by the ledger and shows in InUse. Were it collected, its ledger
// entry would outlive it, and a plain allocation that reused its address
// would be taken for a pool buffer by a later Put.
func TestDroppedLeaseStaysLeased(t *testing.T) {
	start := InUse()
	wp := dropLease(4096)
	runtime.GC()
	runtime.GC()
	ptr := wp.Value()
	if ptr == nil {
		t.Fatal("a lease dropped without Put was collected while the ledger lists it")
	}
	if got := InUse() - start; got != 1 {
		t.Errorf("InUse delta with a dropped lease = %d, want 1", got)
	}
	Put(unsafe.Slice(ptr, 4096))
	if got := InUse() - start; got != 0 {
		t.Errorf("InUse delta after the dropped lease's Put = %d, want 0", got)
	}
}

func TestDoublePutPanics(t *testing.T) {
	b := Get(512)
	Put(b)
	defer func() {
		if recover() == nil {
			t.Fatal("second Put of the same lease did not panic")
		}
		// Re-lease so the panicked buffer is not left in a weird state for
		// other tests (the ledger is package-global).
		Put(Get(512))
	}()
	Put(b)
}

func TestRetainOfUnleasedPanics(t *testing.T) {
	b := Get(512)
	Put(b)
	defer func() {
		if recover() == nil {
			t.Fatal("Retain of a returned buffer did not panic")
		}
	}()
	Retain(b)
}

func TestForeignBuffersAreNoOps(t *testing.T) {
	start := InUse()
	foreign := make([]byte, 4096)
	Put(foreign) // must not panic
	Retain(foreign)
	Put(nil)
	Retain(nil)
	if got := InUse() - start; got != 0 {
		t.Fatalf("foreign Put/Retain moved InUse by %d", got)
	}
}

func TestOversizeFallsBackToForeign(t *testing.T) {
	start := InUse()
	b := Get(classSizes[len(classSizes)-1] + 1)
	if got := InUse() - start; got != 0 {
		t.Fatalf("oversize Get leased from pool (InUse delta %d)", got)
	}
	Put(b) // foreign: no-op
}

func TestRetainDefersRecycle(t *testing.T) {
	b := Get(4096)
	Retain(b)
	Put(b)
	// Still one reference out: the buffer must NOT be on the free list.
	b2 := Get(4096)
	p0, _ := base(b)
	p1, _ := base(b2)
	if p0 == p1 {
		t.Fatal("buffer recycled while a retained reference was live")
	}
	Put(b)
	Put(b2)
}

// TestConcurrentLeases drives every shard and class from many goroutines;
// meaningful chiefly under -race.
func TestConcurrentLeases(t *testing.T) {
	start := InUse()
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sizes := []int{512, 4096, 65536, 1 << 20}
			held := make([][]byte, 0, 8)
			for i := 0; i < 2000; i++ {
				b := Get(sizes[(i+w)%len(sizes)])
				b[0] = byte(i)
				if i%3 == 0 {
					Retain(b)
					Put(b)
				}
				held = append(held, b)
				if len(held) == cap(held) {
					for _, h := range held {
						Put(h)
					}
					held = held[:0]
				}
			}
			for _, h := range held {
				Put(h)
			}
		}(w)
	}
	wg.Wait()
	if got := InUse() - start; got != 0 {
		t.Fatalf("leak: InUse delta %d after all Puts", got)
	}
}

// leaseAndReturn leases an n-byte buffer, returns it and keeps only a weak
// pointer to it.
//
//go:noinline
func leaseAndReturn(n int) weak.Pointer[byte] {
	b := Get(n)
	w := weak.Make(unsafe.SliceData(b))
	Put(b)
	return w
}

// TestIdleClassIsCollected: a buffer returned to a free list that no lease
// touches afterwards is collected within two collections, in every class.
func TestIdleClassIsCollected(t *testing.T) {
	var ws [len(classSizes)]weak.Pointer[byte]
	for ci, sz := range classSizes {
		ws[ci] = leaseAndReturn(sz)
	}
	runtime.GC()
	runtime.GC()
	for ci, w := range ws {
		if w.Value() != nil {
			t.Errorf("class %d B: a returned buffer survived two collections without a lease", classSizes[ci])
		}
		if p.classes[ci].list() != nil {
			t.Errorf("class %d B: its free list survived two collections without a lease", classSizes[ci])
		}
	}
}

// TestListSurvivesOneCollection: the collection between two leases of a
// busy class does not empty its free list, so the hot path keeps reusing
// its buffers across collections.
func TestListSurvivesOneCollection(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops Puts at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no collection but the forced one
	b := Get(4096)
	p0, _ := base(b)
	Put(b)
	runtime.GC()
	b2 := Get(4096)
	p1, _ := base(b2)
	Put(b2)
	if p0 != p1 {
		t.Fatal("the free list did not survive one collection: a returned buffer was not reused")
	}
}

// panics reports whether f panics.
func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// TestLeasesAcrossCollections runs leases from several goroutines while
// collections are forced, so an idle free list is collected and started
// afresh beside busy ones; meaningful chiefly under -race. Every lease comes
// back, and a returned buffer's double Put and Retain panic while its list
// lives.
func TestLeasesAcrossCollections(t *testing.T) {
	start := InUse()
	var done atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sizes := []int{512, 4096, 16384, 65536}
			held := make([][]byte, 0, 8)
			for i := 0; i < 2000 || !done.Load(); i++ {
				if i%64 == 0 {
					runtime.Gosched() // let the collections through on one P
				}
				b := Get(sizes[(i+w)%len(sizes)])
				if i%3 == 0 {
					Retain(b)
					Put(b)
				}
				held = append(held, b)
				if len(held) == cap(held) {
					for _, h := range held {
						Put(h)
					}
					held = held[:0]
				}
			}
			for _, h := range held {
				Put(h)
			}
		}(w)
	}
	// The 256 KiB class is this goroutine's alone, so nobody re-leases the
	// buffer between its Put and the stale calls. Its list is held only
	// across each check, and every tenth round two collections take it. A
	// collection may keep an object one cycle longer when a goroutine it
	// preempted holds a stale word that points at it, so the count of lists
	// collected is checked, not each round.
	const checked = 262144
	var prev weak.Pointer[freeList]
	collected := 0
	for i := 0; i < 200; i++ {
		if i%10 == 0 {
			runtime.GC()
			runtime.GC()
			if i > 0 && prev.Value() == nil {
				collected++
			}
		}
		l := p.classes[classFor(checked)].touch()
		prev = weak.Make(l)
		b := Get(checked)
		Put(b)
		if !panics(func() { Put(b) }) {
			t.Errorf("round %d: double Put of a returned buffer did not panic", i)
		}
		if !panics(func() { Retain(b) }) {
			t.Errorf("round %d: Retain of a returned buffer did not panic", i)
		}
		runtime.KeepAlive(l)
	}
	done.Store(true)
	wg.Wait()
	if collected < 10 {
		t.Errorf("the idle class's free list was collected in %d of 19 rounds of two collections", collected)
	}
	if got := InUse() - start; got != 0 {
		t.Fatalf("leak: InUse delta %d after all Puts", got)
	}
}

// BenchmarkGetPut4K is one goroutine's lease and return of a 4 KiB buffer.
func BenchmarkGetPut4K(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Put(Get(4096))
	}
}

// BenchmarkGetPut4KParallel is a 4 KiB lease and return on every P, each
// beside the Retain and Put of a foreign 4 KiB slice, which is what a
// client's write payload is to the pool.
func BenchmarkGetPut4KParallel(b *testing.B) {
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		foreign := make([]byte, 4096)
		for pb.Next() {
			buf := Get(4096)
			Retain(foreign)
			Put(foreign)
			Put(buf)
		}
	})
}
