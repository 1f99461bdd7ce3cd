package simdisk

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"ursa/internal/clock"
	"ursa/internal/util"
)

// HDD simulates a mechanical drive with one head, handed from submitter to
// submitter under the disk's own lock in elevator (SCAN) order — the paper
// notes that one single-threaded process with elevator scheduling saturates
// an HDD, and that extra threads only confuse it (§5.3). No goroutine runs
// on the disk's behalf: the submitter holding the head sleeps its request's
// service time itself, outside the lock, and on finishing passes the head to
// the queued request the elevator picks. Sequential access at the head
// position skips the seek+rotation cost entirely, which is why journal
// appends and large replica copies run at media speed while random small
// writes crawl.
type HDD struct {
	model HDDModel
	clk   clock.Clock
	store *memStore

	mu sync.Mutex
	// turn wakes the queued submitters whenever the head is handed on or the
	// disk closes; each checks whether it was the one picked.
	turn    sync.Cond
	pending []hddWait // queued submitters, kept sorted by offset
	seq     uint64    // the last ticket handed to a queued submitter
	holder  uint64    // ticket of the submitter the head was passed to
	busy    bool      // a submitter holds the head
	depth   int
	closed  bool

	// headPos and ascending are the head's: written only by its holder,
	// under mu when the head is passed on.
	headPos   int64
	ascending bool

	stats stats
}

// hddWait is one queued submitter: where it wants the head, and its ticket.
type hddWait struct {
	off int64
	seq uint64
}

func byOffset(w hddWait, off int64) int { return cmp.Compare(w.off, off) }

// NewHDD creates a simulated HDD.
func NewHDD(model HDDModel, clk clock.Clock) *HDD {
	d := &HDD{
		model:     model,
		clk:       clk,
		store:     newMemStore(model.Capacity),
		ascending: true,
	}
	d.turn.L = &d.mu
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

// submit takes the head — at once when it is free and nobody queues,
// otherwise when the elevator picks this request — serves the request with
// it and passes it on.
func (d *HDD) submit(p []byte, off int64, write bool) error {
	if err := d.store.check(off, len(p)); err != nil {
		return err
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return util.ErrClosed
	}
	d.depth++
	if d.busy {
		d.seq++
		me := d.seq
		i, _ := slices.BinarySearchFunc(d.pending, off, byOffset)
		d.pending = slices.Insert(d.pending, i, hddWait{off, me})
		for d.holder != me && !d.closed {
			d.turn.Wait()
		}
		if d.holder != me {
			// Closed while queued: the request fails unserved.
			d.pending = slices.DeleteFunc(d.pending, func(w hddWait) bool { return w.seq == me })
			d.depth--
			d.mu.Unlock()
			return util.ErrClosed
		}
	}
	d.busy = true
	d.mu.Unlock()

	service := d.serviceTime(off, len(p))
	d.clk.Sleep(service)
	var err error
	if write {
		err = d.store.writeAt(p, off)
	} else {
		err = d.store.readAt(p, off)
	}
	if err == nil {
		d.stats.record(write, len(p), service)
	}

	d.mu.Lock()
	d.headPos = off + int64(len(p))
	d.depth--
	if len(d.pending) > 0 && !d.closed {
		d.holder = d.pickLocked().seq
	} else {
		d.busy = false
	}
	d.turn.Broadcast()
	d.mu.Unlock()
	return err
}

// pickLocked removes and returns the next request per SCAN: continue in the
// current direction from the head position; reverse at the end of the queue.
func (d *HDD) pickLocked() hddWait {
	i, _ := slices.BinarySearchFunc(d.pending, d.headPos, byOffset)
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
	w := d.pending[idx]
	d.pending = slices.Delete(d.pending, idx, idx+1)
	return w
}

// serviceTime computes the mechanical cost of n bytes at off from where the
// head is.
func (d *HDD) serviceTime(off int64, n int) time.Duration {
	dist := off - d.headPos
	if dist < 0 {
		dist = -dist
	}
	t := transfer(n, d.model.Bandwidth)
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

// Close implements Disk: queued requests fail with ErrClosed, and Close
// returns once the request holding the head has been served.
func (d *HDD) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	d.turn.Broadcast()
	for d.busy {
		d.turn.Wait()
	}
	return nil
}

// UsedBytes reports allocated backing pages (test/diagnostic aid).
func (d *HDD) UsedBytes() int64 { return d.store.usedBytes() }
