// Package cluster provides scenario drivers over a core.Cluster: locating
// chunk replicas, injecting failures, waiting for recovery, and sampling
// recovery traffic over time. The failure-recovery benchmark (Fig 12) and
// the failover example are built from these pieces.
package cluster

import (
	"fmt"
	"time"

	"ursa/internal/chunkserver"
	"ursa/internal/client"
	"ursa/internal/core"
	"ursa/internal/master"
	"ursa/internal/util"
)

// ChunkPlacement locates one chunk's replicas for a vdisk.
func ChunkPlacement(cl *client.Client, vdisk string, chunkIndex int) (master.ChunkMeta, error) {
	meta, err := cl.OpenMeta(vdisk)
	if err != nil {
		return master.ChunkMeta{}, err
	}
	if chunkIndex >= len(meta.Chunks) {
		return master.ChunkMeta{}, fmt.Errorf("cluster: chunk %d of %q: %w",
			chunkIndex, vdisk, util.ErrNotFound)
	}
	return meta.Chunks[chunkIndex], nil
}

// PrimaryAddr returns the preferred-primary replica address of a chunk.
func PrimaryAddr(cl *client.Client, vdisk string, chunkIndex int) (string, error) {
	cm, err := ChunkPlacement(cl, vdisk, chunkIndex)
	if err != nil {
		return "", err
	}
	return cm.Replicas[0].Addr, nil
}

// WaitViewChange polls until the chunk's view exceeds fromView or the
// timeout passes, returning the new placement.
func WaitViewChange(c *core.Cluster, cl *client.Client, vdisk string,
	chunkIndex int, fromView uint64, timeout time.Duration) (master.ChunkMeta, error) {

	deadline := c.Clock().Now().Add(timeout)
	for {
		cm, err := ChunkPlacement(cl, vdisk, chunkIndex)
		if err == nil && cm.View > fromView {
			return cm, nil
		}
		if c.Clock().Now().After(deadline) {
			return master.ChunkMeta{}, fmt.Errorf("cluster: no view change past %d: %w",
				fromView, util.ErrTimeout)
		}
		c.Clock().Sleep(timeout / 50)
	}
}

// TotalServerStats sums chunk-server counters across the cluster.
func TotalServerStats(c *core.Cluster) chunkserver.Stats {
	var total chunkserver.Stats
	for _, m := range c.Machines {
		for _, s := range m.Servers {
			st := s.Stats()
			total.Reads += st.Reads
			total.BytesWritten += st.BytesWritten
			total.Repairs += st.Repairs
			total.Clones += st.Clones
		}
	}
	return total
}

// TrafficSample is one point of a recovery-traffic timeline.
type TrafficSample struct {
	T     time.Duration // since sampling started
	Bytes int64         // bytes written in this interval, cluster-wide
	Rate  float64       // bytes/second over the interval
}

// TrafficMonitor samples cluster-wide server write traffic at the given
// interval until Stop. It reproduces Fig 12's one-sample-per-interval
// recovery timeline.
type TrafficMonitor struct {
	samples chan TrafficSample
	stop    chan struct{}
	done    chan struct{}
}

// StartTrafficMonitor begins sampling.
func StartTrafficMonitor(c *core.Cluster, interval time.Duration) *TrafficMonitor {
	m := &TrafficMonitor{
		samples: make(chan TrafficSample, 4096),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go func() {
		defer close(m.done)
		defer close(m.samples)
		start := c.Clock().Now()
		prev := TotalServerStats(c).BytesWritten
		for {
			select {
			case <-m.stop:
				return
			case <-c.Clock().After(interval):
			}
			cur := TotalServerStats(c).BytesWritten
			delta := cur - prev
			prev = cur
			s := TrafficSample{
				T:     c.Clock().Now().Sub(start),
				Bytes: delta,
				Rate:  float64(delta) / interval.Seconds(),
			}
			select {
			case m.samples <- s:
			default: // drop rather than block the sampler
			}
		}
	}()
	return m
}

// Stop ends sampling and returns the collected timeline.
func (m *TrafficMonitor) Stop() []TrafficSample {
	close(m.stop)
	<-m.done
	var out []TrafficSample
	for s := range m.samples {
		out = append(out, s)
	}
	return out
}
