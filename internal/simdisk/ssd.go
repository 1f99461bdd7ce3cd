package simdisk

import (
	"sync/atomic"

	"ursa/internal/clock"
	"ursa/internal/util"
)

// SSD simulates a flash device: requests occupy one of Parallelism service
// slots; within a slot an op costs access latency plus transfer time.
// Random and sequential costs are identical, which is what lets URSA place
// journals on the same SSDs as primary data and replay them continuously
// without hurting foreground I/O (§3.2).
type SSD struct {
	model  SSDModel
	clk    clock.Clock
	store  *memStore
	slots  chan struct{}
	depth  atomic.Int32
	stats  stats
	closed atomic.Bool
}

// NewSSD creates a simulated SSD with the given model on clk.
func NewSSD(model SSDModel, clk clock.Clock) *SSD {
	if model.Parallelism <= 0 {
		model.Parallelism = 1
	}
	return &SSD{
		model: model,
		clk:   clk,
		store: newMemStore(model.Capacity),
		slots: make(chan struct{}, model.Parallelism),
	}
}

// ReadAt implements Disk.
func (d *SSD) ReadAt(p []byte, off int64) error {
	return d.do(p, off, false)
}

// WriteAt implements Disk.
func (d *SSD) WriteAt(p []byte, off int64) error {
	return d.do(p, off, true)
}

func (d *SSD) do(p []byte, off int64, write bool) error {
	if d.closed.Load() {
		return util.ErrClosed
	}
	d.depth.Add(1)
	defer d.depth.Add(-1)

	d.slots <- struct{}{} // acquire a flash channel
	defer func() { <-d.slots }()

	var service = d.model.ReadLatency
	bw := d.model.ReadBandwidth
	if write {
		service = d.model.WriteLatency
		bw = d.model.WriteBandwidth
	}
	service += transfer(len(p), bw)
	d.clk.Sleep(service)

	var err error
	if write {
		err = d.store.writeAt(p, off)
	} else {
		err = d.store.readAt(p, off)
	}
	if err != nil {
		return err
	}
	d.stats.record(write, len(p), service)
	return nil
}

// Discard implements Discarder.
func (d *SSD) Discard(off, n int64) { d.store.discard(off, n) }

// Size implements Disk.
func (d *SSD) Size() int64 { return d.model.Capacity }

// QueueDepth implements Disk.
func (d *SSD) QueueDepth() int { return int(d.depth.Load()) }

// Stats implements Disk.
func (d *SSD) Stats() Stats { return d.stats.snapshot() }

// Close implements Disk.
func (d *SSD) Close() error {
	d.closed.Store(true)
	return nil
}

// UsedBytes reports allocated backing pages (test/diagnostic aid).
func (d *SSD) UsedBytes() int64 { return d.store.usedBytes() }
