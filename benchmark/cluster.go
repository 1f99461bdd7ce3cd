package main

import (
	"fmt"
	"sync"
	"time"

	"ursa/internal/client"
	"ursa/internal/clock"
	"ursa/internal/core"
	"ursa/internal/master"
	"ursa/internal/simdisk"
	"ursa/internal/util"
)

// The tick-scale models: internal/bench's ×10 slow motion of the paper's
// hardware, every fixed latency ≥1 ms so each sleep lands above the host's
// ≈1.1 ms timer floor. Copied, not imported, so a change to the figure
// benches cannot silently move this benchmark's baseline.

func tickSSD() simdisk.SSDModel {
	return simdisk.SSDModel{
		Capacity:       16 * util.GiB,
		Parallelism:    32,
		ReadLatency:    1 * time.Millisecond,
		WriteLatency:   2 * time.Millisecond,
		ReadBandwidth:  220e6,
		WriteBandwidth: 120e6,
	}
}

func tickHDD() simdisk.HDDModel {
	return simdisk.HDDModel{
		Capacity:   64 * util.GiB,
		SeekMax:    160 * time.Millisecond,
		SeekSettle: 10 * time.Millisecond,
		RPM:        720,
		Bandwidth:  15e6,
		TrackSkip:  512 * util.KiB,
	}
}

const (
	tickNet = 1 * time.Millisecond

	machines       = 3
	ssdsPerMachine = 2
	hddsPerMachine = 4

	vdiskSize = 256 * util.MiB
	vdiskName = "bench"
	fillUnit  = 1 * util.MiB
)

func clusterOptions(ssd simdisk.SSDModel, hdd simdisk.HDDModel, net time.Duration) core.Options {
	return core.Options{
		Machines:       machines,
		SSDsPerMachine: ssdsPerMachine,
		HDDsPerMachine: hddsPerMachine,
		Mode:           core.Hybrid,
		Replication:    3,
		Clock:          clock.Realtime,
		SSDModel:       ssd,
		HDDModel:       hdd,
		HDDJournal:     true,
		NetLatency:     net,
		// Generous protocol timeouts: a host stall must show as latency,
		// never as a retry that changes what the run did.
		ReplTimeout: 5 * time.Second,
		CallTimeout: 20 * time.Second,
	}
}

// sut is one built cluster with its opened vdisk.
type sut struct {
	cluster *core.Cluster
	client  *client.Client
	vd      *client.VDisk
}

func (s *sut) close() {
	if s.vd != nil {
		s.vd.Close()
	}
	s.client.Close()
	s.cluster.Close()
}

// drain replays every journal of the cluster to its HDD and returns how
// long that took.
func (s *sut) drain() time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, m := range s.cluster.Machines {
		for _, js := range m.JournalSets() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				js.Drain()
			}()
		}
	}
	wg.Wait()
	return time.Since(t0)
}

// setUp builds the cluster, creates and opens the vdisk, fills the
// workload's working set through the vdisk and drains the journals: the
// state every measured window starts from.
func setUp(opts core.Options, wl *workload, seed uint64) (*sut, error) {
	c, err := core.New(opts)
	if err != nil {
		return nil, fmt.Errorf("build cluster: %w", err)
	}
	s := &sut{cluster: c, client: c.NewClient("bench-client")}
	req := master.CreateVDiskReq{Name: vdiskName, Size: vdiskSize}
	if wl.seq {
		req.StripeGroup = 4
		req.StripeUnit = 128 * util.KiB
	}
	if _, err := s.client.CreateVDisk(req); err != nil {
		s.close()
		return nil, fmt.Errorf("create vdisk: %w", err)
	}
	if s.vd, err = s.client.Open(vdiskName); err != nil {
		s.close()
		return nil, fmt.Errorf("open vdisk: %w", err)
	}
	if !wl.seq {
		if err := fill(s.vd, wl, seed); err != nil {
			s.close()
			return nil, err
		}
	}
	s.drain()
	return s, nil
}

// fill writes version 0 of every block, one goroutine per chunk region, in
// fillUnit writes (journal bypass: SSD primary plus direct HDD backups).
func fill(vd *client.VDisk, wl *workload, seed uint64) error {
	regions := wl.blocks / wl.blocksPerChunk
	perWrite := fillUnit / wl.blockSize
	errs := make(chan error, regions)
	for r := 0; r < regions; r++ {
		go func(r int) {
			buf := make([]byte, fillUnit)
			lo, hi := r*wl.blocksPerChunk, (r+1)*wl.blocksPerChunk
			for b := lo; b < hi; b += perWrite {
				n := min(perWrite, hi-b)
				for i := 0; i < n; i++ {
					fillPayload(buf[i*wl.blockSize:(i+1)*wl.blockSize], seed, b+i, 0)
				}
				if err := vd.WriteAt(buf[:n*wl.blockSize], wl.offset(b)); err != nil {
					errs <- fmt.Errorf("fill block %d: %w", b, err)
					return
				}
			}
			errs <- nil
		}(r)
	}
	var first error
	for r := 0; r < regions; r++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}
