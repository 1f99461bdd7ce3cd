// Package bufpool is the hot path's payload allocator: a size-classed pool
// of reference-counted byte buffers with an explicit lease/return contract.
//
// The data path moves one payload per I/O through
// transport→chunkserver→blockstore→journal; allocating that payload per
// message (and freeing it to the GC after one use) is the single largest
// source of garbage on the 4 KiB hot path. The pool replaces allocation
// with a lease:
//
//   - Get(n) leases a buffer of length n (capacity = its size class) with
//     reference count 1.
//   - Retain(b) adds a reference when a second goroutine's lifetime must
//     cover the buffer (a replication fan-out holding the payload past its
//     handler's return).
//   - Put(b) drops a reference; the last Put returns the buffer to its
//     class free list.
//
// Ownership is foreign-tolerant: Put/Retain on a buffer the pool never
// handed out are silent no-ops. That keeps every release site
// unconditional — client-owned write payloads, JSON blobs, and test
// buffers flow through the same code as pooled ones. Put on a buffer the
// pool owns but which is not currently leased panics: that is a real
// double-put, the memory-unsafety bug the ledger exists to catch.
//
// The ledger lists leased buffers only, keyed by each buffer's base pointer,
// so it keeps every lease alive. A lease its holders drop without Put is
// therefore never collected: it shows as InUse() > 0, and no foreign
// allocation can reuse its address and be misjudged a pool buffer.
//
// Memory follows use: a size class's free list is one object that only a
// sync.Pool holds strongly, found through a weak pointer and re-put into
// the sync.Pool by every Get and final Put. A list that no lease touched
// across two collections is collected with every buffer on it, and the
// class's next Get starts a fresh one; a list in use survives the one
// collection between two touches, so the hot path does not re-make it.
// Each list indexes its free buffers under the ledger's shard locks, so a
// buffer moves between ledger and free list in one step and a Put or
// Retain of a returned buffer panics. A buffer on a collected list is
// unreachable to the pool, so a stale Put of it is a foreign no-op. Ledger
// shards and per-class free lists keep Get/Put uncontended at QD32, and a
// Put or Retain of a foreign buffer takes no class-wide lock.
package bufpool

import (
	"sync"
	"sync/atomic"
	"unsafe"
	"weak"
)

// classSizes are the lease capacities, chosen for the path's actual
// shapes: 512 B journal record headers and sectors, 4–64 KiB client I/O
// payloads (BypassThreshold is 64 KiB), 1 MiB clone/rebuild pieces, and
// proto.MaxPayload (16 MiB) as the ceiling.
var classSizes = [...]int{512, 4096, 16384, 65536, 262144, 1 << 20, 4 << 20, 16 << 20}

// ledgerShards must be a power of two.
const ledgerShards = 64

// freeList is one class's returned buffers: a LIFO stack under mu, and an
// index of the same buffers by base pointer, whose shard s is guarded by
// the ledger's shard s lock.
type freeList struct {
	mu   sync.Mutex
	bufs [][]byte
	idx  [ledgerShards]map[*byte]struct{}
}

// class is one size class. Its current free list is held strongly by keep
// alone; ref finds it while it lives.
type class struct {
	size int
	ref  atomic.Pointer[weak.Pointer[freeList]]
	keep sync.Pool
}

// list returns the class's free list, or nil once it has been collected.
func (c *class) list() *freeList {
	if w := c.ref.Load(); w != nil {
		return w.Value()
	}
	return nil
}

// touch returns the class's free list, starting a fresh one if the last was
// collected, and puts it back in keep so that it survives the next
// collection. Whatever keep hands back is this list: an older one is
// collected, so keep no longer holds it.
func (c *class) touch() *freeList {
	for {
		w := c.ref.Load()
		var l *freeList
		if w != nil {
			l = w.Value()
		}
		if l == nil {
			l = new(freeList)
			nw := weak.Make(l)
			if !c.ref.CompareAndSwap(w, &nw) {
				continue // another lease started one first
			}
		}
		c.keep.Get()
		c.keep.Put(l)
		return l
	}
}

// entry is the ledger record of one leased buffer.
type entry struct {
	class int8  // index into classes
	refs  int32 // > 0
}

// shard is one ledger shard: leased buffer base pointer → entry. The key is
// a pointer, not an address, so the ledger keeps the buffer alive.
type shard struct {
	mu sync.Mutex
	m  map[*byte]entry
}

type pool struct {
	classes [len(classSizes)]class
	shards  [ledgerShards]shard

	inUse   atomic.Int64 // buffers currently leased (refs > 0)
	leases  atomic.Int64 // total Get calls served from the pool
	returns atomic.Int64 // total final Puts (buffer back on a free list)
}

var p = func() *pool {
	pl := &pool{}
	for i, sz := range classSizes {
		pl.classes[i].size = sz
	}
	for i := range pl.shards {
		pl.shards[i].m = make(map[*byte]entry)
	}
	return pl
}()

// shardFor returns the ledger shard of ptr and its index.
func (pl *pool) shardFor(ptr *byte) (*shard, int) {
	// Buffer bases are at least 512 B apart; mix the middle bits.
	a := uintptr(unsafe.Pointer(ptr))
	s := int((a>>6 ^ a>>14) & (ledgerShards - 1))
	return &pl.shards[s], s
}

// onFreeList reports whether ptr, the base of a slice of capacity n, is a
// buffer on a live free list. Shard s must be locked. Only a class at least
// n large can hold it.
func (pl *pool) onFreeList(s int, ptr *byte, n int) bool {
	ci := classFor(n)
	if ci < 0 {
		return false
	}
	for ; ci < len(pl.classes); ci++ {
		if l := pl.classes[ci].list(); l != nil {
			if _, ok := l.idx[s][ptr]; ok {
				return true
			}
		}
	}
	return false
}

// classFor returns the smallest class index fitting n, or -1 when n is
// zero or exceeds the largest class.
func classFor(n int) int {
	if n <= 0 || n > classSizes[len(classSizes)-1] {
		return -1
	}
	for i, sz := range classSizes {
		if n <= sz {
			return i
		}
	}
	return -1
}

// base returns the ledger key of b: a pointer to its first backing byte.
// Slices with zero capacity have no backing array and no key.
func base(b []byte) (*byte, bool) {
	if cap(b) == 0 {
		return nil, false
	}
	return unsafe.SliceData(b[:1]), true
}

// Get leases a buffer of length n with one reference. Requests outside
// the class range fall back to a plain allocation the ledger does not
// track (a foreign buffer: Put and Retain on it are no-ops).
func Get(n int) []byte {
	ci := classFor(n)
	if ci < 0 {
		return make([]byte, n)
	}
	c := &p.classes[ci]
	l := c.touch()
	l.mu.Lock()
	var b []byte
	if k := len(l.bufs); k > 0 {
		b = l.bufs[k-1]
		l.bufs[k-1] = nil
		l.bufs = l.bufs[:k-1]
	}
	l.mu.Unlock()
	reused := b != nil
	if !reused {
		b = make([]byte, c.size)
	}
	ptr, _ := base(b)
	sh, s := p.shardFor(ptr)
	sh.mu.Lock()
	if reused {
		// Still indexed as free until here, so a stale Put between the
		// pop and this line panics.
		delete(l.idx[s], ptr)
	}
	sh.m[ptr] = entry{class: int8(ci), refs: 1}
	sh.mu.Unlock()
	p.inUse.Add(1)
	p.leases.Add(1)
	return b[:n]
}

// Retain adds a reference to a leased buffer so a second consumer can
// outlive the first; each Retain needs a matching Put. Retain on a
// foreign buffer is a no-op. Retain on a pool buffer that is not leased
// panics — the caller is reading recycled memory.
func Retain(b []byte) {
	ptr, ok := base(b)
	if !ok {
		return
	}
	sh, s := p.shardFor(ptr)
	sh.mu.Lock()
	e, ok := sh.m[ptr]
	if !ok {
		free := p.onFreeList(s, ptr, cap(b))
		sh.mu.Unlock()
		if free {
			panic("bufpool: Retain of a buffer that is not leased")
		}
		return
	}
	e.refs++
	sh.m[ptr] = e
	sh.mu.Unlock()
	p.inUse.Add(1)
}

// Put drops one reference; the final Put returns the buffer to its free
// list. Put on a foreign buffer is a no-op, so release sites are
// unconditional. Put on a pool buffer that is not leased panics: a double
// put means some holder is about to read recycled memory.
func Put(b []byte) {
	ptr, ok := base(b)
	if !ok {
		return
	}
	sh, s := p.shardFor(ptr)
	sh.mu.Lock()
	e, ok := sh.m[ptr]
	if !ok {
		free := p.onFreeList(s, ptr, cap(b))
		sh.mu.Unlock()
		if free {
			panic("bufpool: double Put")
		}
		return
	}
	if e.refs--; e.refs > 0 {
		sh.m[ptr] = e
		sh.mu.Unlock()
		p.inUse.Add(-1)
		return
	}
	// The last reference: from the ledger to the free index in one step.
	delete(sh.m, ptr)
	c := &p.classes[e.class]
	l := c.touch()
	if l.idx[s] == nil {
		l.idx[s] = make(map[*byte]struct{})
	}
	l.idx[s][ptr] = struct{}{}
	sh.mu.Unlock()
	p.inUse.Add(-1)
	p.returns.Add(1)
	l.mu.Lock()
	l.bufs = append(l.bufs, unsafe.Slice(ptr, c.size)) // the class-size view for reuse
	l.mu.Unlock()
}

// InUse reports the number of currently leased references. A quiesced
// system leaks iff this is nonzero.
func InUse() int64 { return p.inUse.Load() }

// Leases reports the cumulative number of pool leases served.
func Leases() int64 { return p.leases.Load() }

// Returns reports the cumulative number of buffers fully returned.
func Returns() int64 { return p.returns.Load() }
