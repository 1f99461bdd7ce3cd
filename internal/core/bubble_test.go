//go:build goexperiment.synctest

package core

import (
	"testing"
	"time"

	"ursa/internal/clock"
	"ursa/internal/util"
)

// TestBubbleIdleLogStaysFlat: an idle cluster with one open vdisk logs
// nothing in ten lease TTLs of virtual time. The client renews three times a
// TTL; a renewal moves the primary master's soft end of the lease and
// commits no entry. The vdisk still takes a write afterwards: the renewals
// kept its lease.
func TestBubbleIdleLogStaysFlat(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := testCluster(t, Hybrid)
		defer cleanup()
		cl := c.NewClient("c1")
		defer cl.Close()
		vd, closeVD := mustVDisk(t, cl, "idle", util.ChunkSize)
		defer closeVD()

		seq := c.Master.LogSeq()
		time.Sleep(10 * vd.Meta().LeaseTTL)
		if got := c.Master.LogSeq(); got != seq {
			t.Errorf("the idle log grew from %d to %d entries in 10 lease TTLs, want no growth", seq, got)
		}
		if err := vd.WriteAt(make([]byte, 4*util.KiB), 0); err != nil {
			t.Errorf("write after 10 idle TTLs: %v", err)
		}
	})
}
