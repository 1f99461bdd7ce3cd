package simdisk

import (
	"sort"
	"sync"
	"time"

	"ursa/internal/clock"
	"ursa/internal/util"
)

// HDD simulates a mechanical drive: a single service loop owns the head and
// dispatches queued requests with the elevator (SCAN) algorithm — the paper
// notes that one single-threaded process with elevator scheduling saturates
// an HDD, and that extra threads only confuse it (§5.3). Sequential access
// at the head position skips the seek+rotation cost entirely, which is why
// journal appends and large replica copies run at media speed while random
// small writes crawl.
type HDD struct {
	model HDDModel
	clk   clock.Clock
	store *memStore

	mu      sync.Mutex
	cond    *sync.Cond
	pending []*hddReq // kept sorted by offset
	depth   int
	closed  bool

	headPos   int64
	ascending bool

	stats stats
	done  chan struct{}
}

type hddReq struct {
	off   int64
	buf   []byte
	write bool
	errc  chan error // buffered 1: the service loop's verdict
}

// hddReqPool recycles requests with their completion channels. A request
// is recyclable once its submitter has taken the verdict — errc has exactly
// that one consumer — or when it was never queued.
var hddReqPool = sync.Pool{New: func() any { return &hddReq{errc: make(chan error, 1)} }}

// NewHDD creates a simulated HDD and starts its service loop.
func NewHDD(model HDDModel, clk clock.Clock) *HDD {
	d := &HDD{
		model:     model,
		clk:       clk,
		store:     newMemStore(model.Capacity),
		ascending: true,
		done:      make(chan struct{}),
	}
	d.cond = sync.NewCond(&d.mu)
	go d.serve()
	return d
}

// ReadAt implements Disk.
func (d *HDD) ReadAt(p []byte, off int64) error {
	return d.submit(p, off, false)
}

// WriteAt implements Disk.
func (d *HDD) WriteAt(p []byte, off int64) error {
	return d.submit(p, off, true)
}

func (d *HDD) submit(p []byte, off int64, write bool) error {
	if err := d.store.check(off, len(p)); err != nil {
		return err
	}
	return d.enqueue(off, p, write)
}

// enqueue queues one request and waits for the service loop's verdict.
func (d *HDD) enqueue(off int64, buf []byte, write bool) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return util.ErrClosed
	}
	req := hddReqPool.Get().(*hddReq)
	req.off, req.buf, req.write = off, buf, write
	// Insert keeping pending sorted by offset so the elevator scan is a
	// binary search away.
	i := sort.Search(len(d.pending), func(i int) bool { return d.pending[i].off >= off })
	d.pending = append(d.pending, nil)
	copy(d.pending[i+1:], d.pending[i:])
	d.pending[i] = req
	d.depth++
	d.cond.Signal()
	d.mu.Unlock()

	err := <-req.errc
	req.buf = nil
	hddReqPool.Put(req)
	return err
}

// serve is the single-threaded device loop.
func (d *HDD) serve() {
	for {
		d.mu.Lock()
		for len(d.pending) == 0 && !d.closed {
			d.cond.Wait()
		}
		if d.closed {
			for _, r := range d.pending {
				r.errc <- util.ErrClosed
			}
			d.pending = nil
			d.mu.Unlock()
			close(d.done)
			return
		}
		req := d.pickLocked()
		d.mu.Unlock()

		service := d.serviceTime(req)
		d.clk.Sleep(service)

		var err error
		if req.write {
			err = d.store.writeAt(req.buf, req.off)
		} else {
			err = d.store.readAt(req.buf, req.off)
		}
		if err == nil {
			d.stats.record(req.write, len(req.buf), service)
		}
		d.headPos = req.off + int64(len(req.buf))

		d.mu.Lock()
		d.depth--
		d.mu.Unlock()
		req.errc <- err
	}
}

// pickLocked removes and returns the next request per SCAN: continue in the
// current direction from the head position; reverse at the end of the queue.
func (d *HDD) pickLocked() *hddReq {
	i := sort.Search(len(d.pending), func(i int) bool {
		return d.pending[i].off >= d.headPos
	})
	var idx int
	if d.ascending {
		if i < len(d.pending) {
			idx = i
		} else {
			d.ascending = false
			idx = len(d.pending) - 1
		}
	} else {
		if i > 0 {
			idx = i - 1
		} else {
			d.ascending = true
			idx = 0
		}
	}
	req := d.pending[idx]
	d.pending = append(d.pending[:idx], d.pending[idx+1:]...)
	return req
}

// serviceTime computes the mechanical cost of one request.
func (d *HDD) serviceTime(req *hddReq) time.Duration {
	dist := req.off - d.headPos
	if dist < 0 {
		dist = -dist
	}
	t := transfer(len(req.buf), d.model.Bandwidth)
	if dist > d.model.TrackSkip {
		// Seek: settle + stroke-proportional travel + half a rotation.
		frac := float64(dist) / float64(d.model.Capacity)
		t += d.model.SeekSettle +
			time.Duration(frac*float64(d.model.SeekMax)) +
			d.model.rotationHalf()
		d.stats.seeks.Add(1)
	}
	return t
}

// Discard implements Discarder. It bypasses the request queue: releasing
// pages moves no head and costs no service time.
func (d *HDD) Discard(off, n int64) { d.store.discard(off, n) }

// Size implements Disk.
func (d *HDD) Size() int64 { return d.model.Capacity }

// QueueDepth implements Disk.
func (d *HDD) QueueDepth() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.depth
}

// Stats implements Disk.
func (d *HDD) Stats() Stats { return d.stats.snapshot() }

// Close implements Disk; queued requests fail with ErrClosed.
func (d *HDD) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.cond.Broadcast()
	d.mu.Unlock()
	<-d.done
	return nil
}

// UsedBytes reports allocated backing pages (test/diagnostic aid).
func (d *HDD) UsedBytes() int64 { return d.store.usedBytes() }
