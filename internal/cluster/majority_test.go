package cluster

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"ursa/internal/client"
	"ursa/internal/clock"
	"ursa/internal/core"
	"ursa/internal/master"
	"ursa/internal/objstore"
	"ursa/internal/util"
)

// replicated starts a cluster of opts with three masters on a one-second
// primacy lease.
func replicated(t *testing.T, opts core.Options) *core.Cluster {
	t.Helper()
	opts.Masters = 3
	opts.MasterPrimacyTTL = time.Second
	c, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// cutOff waits until both standbys hold the bootstrap primary's log and
// partitions the primary from them (not from the clients or the chunk
// servers).
func cutOff(t *testing.T, c *core.Cluster) {
	t.Helper()
	waitLogsConverged(t, c)
	addrs := c.MasterAddrs()
	c.Net.Partition(addrs[0], addrs[1])
	c.Net.Partition(addrs[0], addrs[2])
}

// failOver kills the cut-off master 0, heals the partitions and returns the
// master that promotes.
func failOver(t *testing.T, c *core.Cluster) *master.Master {
	t.Helper()
	epoch := c.Masters[0].Epoch()
	c.KillMaster(0)
	c.Net.HealAllPartitions()
	return waitForPrimary(t, c, epoch, 10*time.Second)
}

// TestAcknowledgedCreateSurvivesFailover: a vdisk create answered OK is held
// by a majority of the masters, so whichever master promotes next knows it.
// Master 0, cut off from both standbys, is asked to create vdisk "lost"; if
// it answers OK, client a opens "lost" and writes 64 KiB at 0. Master 0 is
// killed and a standby promotes. Client b then creates "new": it must not be
// handed an ID an acknowledged create was, must read zeros, and a's next
// write to "lost" must not land in b's chunk. Where a create acknowledges on
// its own master alone, all three fail; with the commit rule the cut-off
// create answers ErrNoQuorum within one primacy window and there is nothing
// to lose.
func TestAcknowledgedCreateSurvivesFailover(t *testing.T) {
	clock.Test(t, func() {
		c := replicated(t, chaosClusterOptions(true))
		defer c.Close()
		a, b := c.NewClient("a"), c.NewClient("b")
		defer a.Close()
		defer b.Close()
		cutOff(t, c)

		acked := make(map[uint32]string) // every create answered OK: ID → name
		t0 := time.Now()
		lost, err := c.Masters[0].CreateVDisk(master.CreateVDiskReq{Name: "lost", Size: util.ChunkSize})
		var vdA *client.VDisk
		switch {
		case err == nil:
			acked[lost.ID] = "lost"
			if vdA, err = a.Open("lost"); err != nil {
				t.Fatal(err)
			}
			defer vdA.Close()
			writeGolden(t, vdA)
		case !errors.Is(err, util.ErrNoQuorum):
			t.Fatalf("create on the cut-off master: %v, want OK or %v", err, util.ErrNoQuorum)
		case time.Since(t0) > 2*time.Second:
			t.Errorf("create on the cut-off master failed after %v, past its one-second budget", time.Since(t0))
		}

		p := failOver(t, c)
		for id, name := range acked {
			if got := p.Snapshot().VDisks[id].Name; got != name {
				t.Errorf("promoted master holds %q as vdisk %d, want the acknowledged %q", got, id, name)
			}
		}
		fresh, err := b.CreateVDisk(master.CreateVDiskReq{Name: "new", Size: util.ChunkSize})
		if err != nil {
			t.Fatal(err)
		}
		if name, ok := acked[fresh.ID]; ok {
			t.Errorf("vdisk ID %d handed out again: it is the acknowledged %q's", fresh.ID, name)
		}
		vdB, err := b.Open("new")
		if err != nil {
			t.Fatal(err)
		}
		defer vdB.Close()
		zeros, got := make([]byte, 64*util.KiB), make([]byte, 64*util.KiB)
		if err := vdB.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, zeros) {
			t.Error("a fresh vdisk reads bytes it was never written")
		}
		if vdA != nil {
			scribble := make([]byte, 4*util.KiB)
			util.NewRand(9).Fill(scribble)
			_ = vdA.WriteAt(scribble, 0) // it may fail: it must not land in b's chunk
			if err := vdB.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, zeros) {
				t.Error("a write to the lost vdisk landed in the fresh one")
			}
		}
	})
}

// TestAllocatedSegmentsSurviveFailover is the segment-ID twin: a snapshot
// flush whose segment range was allocated on master 0, cut off from both
// standbys. If the allocation is acknowledged the flush writes its segments;
// master 0 is killed and a standby promotes. The promoted master's segment
// watermark must lie above every segment in the object store, and a snapshot
// it takes must write only fresh segments. With the commit rule the cut-off
// allocation answers ErrNoQuorum and nothing is written.
func TestAllocatedSegmentsSurviveFailover(t *testing.T) {
	clock.Test(t, func() {
		opts := chaosClusterOptions(false)
		model := objstore.TestModel()
		opts.ObjstoreModel = &model
		c := replicated(t, opts)
		defer c.Close()
		vd, closeVD := openVDisk(t, c, "writer", master.CreateVDiskReq{Name: "img", Size: util.ChunkSize})
		writeGolden(t, vd)
		closeVD()
		cl := c.NewClient("snap-client")
		defer cl.Close()
		cutOff(t, c)

		if _, err := c.Masters[0].SnapshotVDisk("img", "cut"); err != nil && !errors.Is(err, util.ErrNoQuorum) {
			t.Fatalf("snapshot on the cut-off master: %v, want OK or %v", err, util.ErrNoQuorum)
		}
		used := make(map[uint64]bool)
		for _, o := range c.Objstore.List() {
			used[o.ID] = true
		}

		p := failOver(t, c)
		wm := p.Snapshot().NextSeg
		for seg := range used {
			if seg >= wm {
				t.Errorf("promoted master's segment watermark %d is at or below segment %d, already in the store", wm, seg)
			}
		}
		if err := cl.SnapshotVDisk("img", "after"); err != nil {
			t.Fatalf("snapshot on the promoted master: %v", err)
		}
		snap := p.Snapshot().Snapshots["after"]
		for _, refs := range snap.Chunks {
			for _, r := range refs {
				if used[r.Seg] {
					t.Errorf("snapshot on the promoted master names segment %d, written before the failover", r.Seg)
				}
			}
		}
	})
}
