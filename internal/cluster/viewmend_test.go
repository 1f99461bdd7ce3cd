package cluster

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/client"
	"ursa/internal/clock"
	"ursa/internal/core"
	"ursa/internal/master"
	"ursa/internal/proto"
	"ursa/internal/redundancy"
	"ursa/internal/simdisk"
	"ursa/internal/util"
)

// TestViewMendedThroughReport: a chunk whose replicas sit at a view other
// than the one the master recorded answers the client StatusStaleView; the
// client reports it, the master's probe sees the views and installs a view
// above all of them, and the client's read and write go through. Each row
// leaves chunk 0 of a written vdisk in one such state — having mended no
// view yet — and returns a client vdisk to drive it and the highest view
// anything held before the mend; a row's mended, when set, checks what the
// mend left.
func TestViewMendedThroughReport(t *testing.T) {
	for _, row := range []struct {
		name   string
		setup  func(t *testing.T) (*core.Cluster, *client.VDisk, []byte, uint64, func()) // ... and the close of it all
		mended func(t *testing.T, c *core.Cluster, vd *client.VDisk)
	}{
		{"master-lost-its-log", replicasAheadOfPromotedMaster, unshippedReplacementReaped},
		{"replica-missed-install", replicaMissedInstall, nil},
		{"rs-replicas-at-unlogged-view", rsReplicasAtUnloggedView, nil},
	} {
		t.Run(row.name, func(t *testing.T) {
			clock.Test(t, func() {
				c, vd, golden, above, cleanup := row.setup(t)
				defer cleanup()

				got := make([]byte, len(golden))
				if err := vd.ReadAt(got, 0); err != nil {
					t.Fatalf("read: %v", err)
				}
				if !bytes.Equal(got, golden) {
					t.Fatal("read returned bytes that were never written")
				}
				fresh := make([]byte, 4*util.KiB)
				util.NewRand(7).Fill(fresh)
				if err := vd.WriteAt(fresh, 0); err != nil {
					t.Fatalf("write: %v", err)
				}
				if err := vd.ReadAt(got[:len(fresh)], 0); err != nil || !bytes.Equal(got[:len(fresh)], fresh) {
					t.Fatalf("read after write: %v, bytes match %v", err, bytes.Equal(got[:len(fresh)], fresh))
				}

				if view := c.PrimaryMaster().Snapshot().VDisks[vd.ID()].Chunks[0].View; view <= above {
					t.Errorf("chunk ends at view %d, want above %d", view, above)
				}
				if c.Metrics().Counter(master.MetricViewMends).Load() == 0 {
					t.Errorf("%s never moved", master.MetricViewMends)
				}
				if row.mended != nil {
					row.mended(t, c, vd)
				}
			})
		})
	}
}

// unshippedReplacementReaped: the replacement the dead master filled, which
// the promoted master never heard of, holds a slot of chunk 0 outside the
// mended view's replica list, below its view; one reconcile pass deletes it.
func unshippedReplacementReaped(t *testing.T, c *core.Cluster, vd *client.VDisk) {
	p := c.PrimaryMaster()
	cm, id := p.Snapshot().VDisks[vd.ID()].Chunks[0], blockstore.MakeChunkID(vd.ID(), 0)
	strays := func() (out []string) {
		for _, addr := range c.ServerAddrs() {
			if !listed(cm, addr) && slices.Contains(c.Server(addr).ScrubChunks(), id) {
				out = append(out, addr)
			}
		}
		return out
	}
	if before := strays(); len(before) != 1 {
		t.Fatalf("slots of chunk 0 outside the mended view's replica list %v: %v, want the one replacement", cm.Replicas, before)
	}
	if _, err := p.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if after := strays(); len(after) != 0 {
		t.Errorf("after a reconcile pass %v still hold a slot of chunk 0 outside the replica list", after)
	}
}

// writeGolden fills the first 64 KiB of vd with a seeded pattern.
func writeGolden(t *testing.T, vd *client.VDisk) []byte {
	t.Helper()
	golden := make([]byte, 64*util.KiB)
	util.NewRand(33).Fill(golden)
	if err := vd.WriteAt(golden, 0); err != nil {
		t.Fatal(err)
	}
	return golden
}

// replicasAheadOfPromotedMaster: the primary master, cut off from both
// standbys, replaces a backup of chunk 0 — installing view i+1 on the
// chunk servers — and dies before the entry ships. The standby that
// promotes records view i, with the old members, while the replicas it
// kept answer at i+1. The primacy lease is long enough that no standby
// promotes (and fences the servers) before the view change is done.
func replicasAheadOfPromotedMaster(t *testing.T) (*core.Cluster, *client.VDisk, []byte, uint64, func()) {
	opts := chaosClusterOptions(true)
	opts.Masters = 3
	opts.MasterPrimacyTTL = 2 * time.Second
	c, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	vd, closeVD := chaosVDisk(t, c, 1)
	closeAll, handed := func() { closeVD(); c.Close() }, false
	defer func() {
		if !handed {
			closeAll()
		}
	}()
	golden := writeGolden(t, vd)
	waitLogsConverged(t, c)

	addrs := c.MasterAddrs()
	c.Net.Partition(addrs[0], addrs[1])
	c.Net.Partition(addrs[0], addrs[2])
	old := vd.Meta().Chunks[0]
	cm, err := c.Masters[0].RecoverChunk(vd.ID(), 0, old.Replicas[1].Addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cm.View != old.View+1 {
		t.Fatalf("view change installed view %d, want %d", cm.View, old.View+1)
	}
	epoch := c.Masters[0].Epoch()
	c.KillMaster(0)
	c.Net.HealAllPartitions()
	p := waitForPrimary(t, c, epoch, 10*time.Second)
	if view := p.Snapshot().VDisks[vd.ID()].Chunks[0].View; view != old.View {
		t.Fatalf("promoted master records view %d, want the unshipped change's predecessor %d", view, old.View)
	}
	handed = true
	return c, vd, golden, cm.View, closeAll
}

// replicaMissedInstall: a view change replaces a crashed backup of chunk 0
// while the master is cut off from the primary replica, so the primary
// answered the probe but never gets the new view: the master records i+1
// and the primary stays at i. The disks a replacement can land on are
// slowed so its fill outlasts the cut's setting-up. A client that opens
// afterwards sees the primary answer at the old view.
func replicaMissedInstall(t *testing.T) (*core.Cluster, *client.VDisk, []byte, uint64, func()) {
	c, closeCluster := chaosCluster(t, false)
	vd, closeVD := chaosVDisk(t, c, 1)
	closeAll, handed := func() { closeVD(); closeCluster() }, false
	defer func() {
		if !handed {
			closeAll()
		}
	}()
	golden := writeGolden(t, vd)
	old := vd.Meta().Chunks[0]

	// The replacement lands on a machine that hosts neither survivor.
	survivors := map[int]bool{}
	for _, r := range old.Replicas[:2] {
		mi, _, _ := replicaDevice(t, c, r.Addr)
		survivors[mi] = true
	}
	var disks []*simdisk.FaultInjector
	for mi, m := range c.Machines {
		if !survivors[mi] {
			disks = append(append(disks, m.SSDFaults...), m.HDDFaults...)
		}
	}
	for _, f := range disks {
		f.Stall(20 * time.Millisecond)
	}
	// The replacement's slot exists once the probe has been answered and
	// its fill begun, and every write of the fill then stalls 20 ms. A
	// delayed op alone is no such event: the crashed backup's machine may
	// still be replaying its journal when the view change starts.
	id := blockstore.MakeChunkID(vd.ID(), 0)
	filling := func() bool {
		for _, addr := range c.ServerAddrs() {
			held := slices.ContainsFunc(old.Replicas, func(r master.ReplicaInfo) bool { return r.Addr == addr })
			if !held && slices.Contains(c.Server(addr).ScrubChunks(), id) {
				return true
			}
		}
		return false
	}

	c.CrashServer(old.Replicas[2].Addr)
	type result struct {
		cm  *master.ChunkMeta
		err error
	}
	done := make(chan result, 1)
	go func() {
		cm, err := c.Master.RecoverChunk(vd.ID(), 0, old.Replicas[2].Addr, 0)
		done <- result{cm, err}
	}()
	// The replacement writes only once the probe has been answered.
	for !filling() {
		select {
		case res := <-done:
			t.Fatalf("view change ended before the replacement's fill began: %+v, %v", res.cm, res.err)
		case <-time.After(time.Millisecond):
		}
	}
	c.Net.Partition(c.MasterAddrs()[0], old.Replicas[0].Addr)
	res := <-done
	c.Net.Heal(c.MasterAddrs()[0], old.Replicas[0].Addr)
	for _, f := range disks {
		f.Heal()
	}
	cm := res.cm
	if res.err != nil || cm.View != old.View+1 || cm.Replicas[0].Addr != old.Replicas[0].Addr {
		t.Fatalf("view change recorded %+v, %v; want view %d led by %s", cm, res.err, old.View+1, old.Replicas[0].Addr)
	}
	v := c.Server(old.Replicas[0].Addr).Handle(&proto.Message{Op: proto.OpGetVersion, Payload: proto.EncodeChunkIDs(id)})
	if v.View != old.View {
		t.Fatalf("primary replica at view %d, want the missed install's predecessor %d", v.View, old.View)
	}

	vd.Close() // hand the lease on
	cl := c.NewClient("late-client")
	late, err := cl.Open("chaos")
	if err != nil {
		t.Fatalf("open after the missed install: %v", err)
	}
	handed = true
	return c, late, golden, cm.View, func() {
		late.Close()
		closeAll()
	}
}

// rsReplicasAtUnloggedView: every replica of an RS(2,1) chunk is moved to
// a view the master never logged — the state a master that installed a
// view and died before shipping it leaves — with no version between them.
// Nothing needs a fill, so only the views tell the chunk needs a new one.
func rsReplicasAtUnloggedView(t *testing.T) (*core.Cluster, *client.VDisk, []byte, uint64, func()) {
	c, closeCluster := ecCluster(t, 4)
	vd, closeVD := openVDisk(t, c, "rs-client", master.CreateVDiskReq{
		Name: "rs21", Size: util.ChunkSize, Redundancy: redundancy.Spec{Kind: redundancy.KindRS, N: 2, M: 1},
	})
	closeAll, handed := func() { closeVD(); closeCluster() }, false
	defer func() {
		if !handed {
			closeAll()
		}
	}()
	golden := writeGolden(t, vd)

	old := vd.Meta().Chunks[0]
	unlogged := old.View + 1
	for _, r := range old.Replicas {
		resp := c.Server(r.Addr).Handle(&proto.Message{
			Op: proto.OpSetView, Chunk: blockstore.MakeChunkID(vd.ID(), 0), View: unlogged,
			Epoch: c.Master.Epoch(), // an admin op, fenced like the master's own
		})
		if resp.Status != proto.StatusOK {
			t.Fatalf("set view on %s: %s", r.Addr, resp.Status)
		}
	}
	handed = true
	return c, vd, golden, unlogged, closeAll
}

// TestStaleClientReadsFromLonePrimary: a view change the client did not
// take part in replaces a backup of chunk 0, and then both backups of the
// new view crash. The client, still at the old view, is answered
// StatusStaleView by the primary. Its report names that old view, so the
// master answers with the recorded meta at once — a probe of the chunk's
// replicas would find no majority — and the read goes to the primary that
// alone survives, within the read's own budget.
func TestStaleClientReadsFromLonePrimary(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := chaosCluster(t, false)
		defer cleanup()
		vd, cleanup := chaosVDisk(t, c, 1)
		defer cleanup()
		golden := writeGolden(t, vd)
		old := vd.Meta().Chunks[0]

		c.CrashServer(old.Replicas[2].Addr)
		cm, err := c.Master.RecoverChunk(vd.ID(), 0, old.Replicas[2].Addr, 0)
		if err != nil || cm.View != old.View+1 || cm.Replicas[0].Addr != old.Replicas[0].Addr {
			t.Fatalf("view change recorded %+v, %v; want view %d led by %s", cm, err, old.View+1, old.Replicas[0].Addr)
		}
		for _, r := range cm.Replicas[1:] {
			c.CrashServer(r.Addr)
		}

		got := make([]byte, len(golden))
		if err := vd.ReadAt(got, 0); err != nil {
			t.Fatalf("read from the lone primary: %v", err)
		}
		if !bytes.Equal(got, golden) {
			t.Fatal("read returned bytes that were never written")
		}
	})
}
