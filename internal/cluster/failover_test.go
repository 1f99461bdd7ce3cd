package cluster

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"ursa/internal/chunkserver"
	"ursa/internal/clock"
	"ursa/internal/core"
	"ursa/internal/master"
	"ursa/internal/simdisk"
	"ursa/internal/util"
)

// failoverCluster is the chaos cluster with a replicated metadata service:
// three masters on a short primacy lease, so a standby promotes within test
// time when the primary dies.
func failoverCluster(t *testing.T) (*core.Cluster, func()) {
	t.Helper()
	opts := chaosClusterOptions(true)
	opts.Masters = 3
	opts.MasterPrimacyTTL = 150 * time.Millisecond
	c, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, c.Close
}

// waitForPrimary polls until some live master claims primacy at an epoch
// above floor, or the deadline passes.
func waitForPrimary(t *testing.T, c *core.Cluster, floor uint64, d time.Duration) *master.Master {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if p := c.PrimaryMaster(); p != nil && p.Epoch() > floor {
			return p
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no master promoted past epoch %d within %v", floor, d)
	return nil
}

// waitLogsConverged waits until both standbys hold the primary's whole log.
func waitLogsConverged(t *testing.T, c *core.Cluster) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if c.Masters[1].LogSeq() == c.Masters[0].LogSeq() && c.Masters[2].LogSeq() == c.Masters[0].LogSeq() {
			return
		}
		if !time.Now().Before(deadline) {
			t.Fatal("standbys never caught up with the primary's log")
		}
	}
}

// TestChaosKillMasterFailover is the failover acceptance scenario: a disk
// dies early (forcing a master-driven view change while the bootstrap
// primary is alive), then the primary master itself is killed mid-workload.
// The data path must ride through the metadata blackout with zero failed
// client I/Os, the full history must stay linearizable, and a standby must
// take over at a higher epoch. This is the failover smoke run wired into
// make check.
func TestChaosKillMasterFailover(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := failoverCluster(t)
		defer cleanup()
		vd, cleanup := chaosVDisk(t, c, 2)
		defer cleanup()

		ops := 400
		rep, err := RunChaos(c, vd, ChaosOptions{
			Ops:       ops,
			Seed:      21,
			WriteFrac: 0.6,
			Schedule: []ChaosEvent{
				{AtOp: 50, Kind: ChaosKillDisk, Machine: 1, HDD: true, Disk: 0},
				{AtOp: 200, Kind: ChaosKillMaster, Master: 0},
			},
			FinalSweep: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.WriteErrors != 0 || rep.ReadErrors != 0 {
			t.Fatalf("client saw failed I/O through the master blackout: %+v", rep)
		}
		if rep.EventsFired != 2 {
			t.Fatalf("fired %d/2 events", rep.EventsFired)
		}

		p := waitForPrimary(t, c, 1, 5*time.Second)
		if p == c.Masters[0] {
			t.Fatal("dead bootstrap master still listed as primary")
		}
		if got := c.Metrics().Counter(master.MetricMasterPromotions).Load(); got == 0 {
			t.Error("promotion counter never moved")
		}

		// The promoted master must serve metadata: a fresh client (configured
		// with every endpoint) opens a new vdisk through it.
		cl := c.NewClient("post-failover-client")
		defer cl.Close()
		if _, err := cl.CreateVDisk(master.CreateVDiskReq{
			Name: "post-failover", Size: util.ChunkSize,
		}); err != nil {
			t.Fatalf("create through promoted master: %v", err)
		}
		vd2, err := cl.Open("post-failover")
		if err != nil {
			t.Fatalf("open through promoted master: %v", err)
		}
		defer vd2.Close()
		buf := make([]byte, util.SectorSize)
		if err := vd2.WriteAt(buf, 0); err != nil {
			t.Fatalf("write on post-failover vdisk: %v", err)
		}
	})
}

// TestDeposedMasterFencedByChunkservers proves the epoch fence: a view
// change the primary starts just before it is cut off from its standbys (but
// not from the chunkservers) outlasts its primacy. A standby promotes at a
// higher epoch and broadcasts it, so the install the deposed master sends
// once its slowed fill lands bounces off StatusStaleEpoch — the rejection
// deposes it on the spot, and it records nothing.
func TestDeposedMasterFencedByChunkservers(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := failoverCluster(t)
		defer cleanup()
		cl := c.NewClient("fence-client")
		defer cl.Close()
		meta, err := cl.CreateVDisk(master.CreateVDiskReq{Name: "fence", Size: 2 * util.ChunkSize})
		if err != nil {
			t.Fatal(err)
		}
		vd, err := cl.Open("fence")
		if err != nil {
			t.Fatal(err)
		}
		defer vd.Close()
		golden := make([]byte, 64*util.KiB)
		util.NewRand(5).Fill(golden)
		if err := vd.WriteAt(golden, 0); err != nil {
			t.Fatal(err)
		}
		waitLogsConverged(t, c)

		// Every device write now takes 20 ms: the fill of a replacement
		// outlasts the promotion below many times over.
		for _, m := range c.Machines {
			for _, f := range append(append([]*simdisk.FaultInjector(nil), m.SSDFaults...), m.HDDFaults...) {
				f.Stall(20 * time.Millisecond)
			}
		}
		viewBefore := meta.Chunks[0].View
		reg := c.Metrics()
		rejBefore := reg.Counter(chunkserver.MetricStaleEpochRejections).Load()

		// Isolate the bootstrap primary from the other masters only, and have it
		// replace a live backup of chunk 0 while its primacy still holds.
		addrs := c.MasterAddrs()
		c.Net.Partition(addrs[0], addrs[1])
		c.Net.Partition(addrs[0], addrs[2])
		recErr := make(chan error, 1)
		go func() {
			_, err := c.Masters[0].RecoverChunk(meta.ID, 0, meta.Chunks[0].Replicas[1].Addr, 0)
			recErr <- err
		}()

		p := waitForPrimary(t, c, 1, 5*time.Second)
		if p == c.Masters[0] {
			t.Fatal("partitioned master should not have bumped its own epoch")
		}
		if err := <-recErr; !errors.Is(err, util.ErrNotPrimary) {
			t.Fatalf("deposed master's view change: %v, want ErrNotPrimary", err)
		}
		if got := reg.Counter(chunkserver.MetricStaleEpochRejections).Load(); got == rejBefore {
			t.Fatal("no chunkserver rejected the deposed master's commands")
		}
		if c.Masters[0].IsPrimary() {
			t.Fatal("deposed master still claims primacy after StatusStaleEpoch")
		}
		if got := c.Masters[0].Epoch(); got < p.Epoch() {
			t.Fatalf("deposed master at epoch %d, want the fence's %d", got, p.Epoch())
		}

		// The real primary's view of the chunk is untouched.
		snap := p.Snapshot()
		if got := snap.VDisks[meta.ID].Chunks[0].View; got != viewBefore {
			t.Fatalf("chunk view changed under the deposed master: %d -> %d", viewBefore, got)
		}

		// The client, told every endpoint, follows the redirect to the new
		// primary for metadata even though its first choice is the deposed one.
		var fetched master.VDiskMeta
		fetched, err = cl.OpenMeta("fence")
		if err != nil {
			t.Fatalf("metadata through replicated masters: %v", err)
		}
		if fetched.ID != meta.ID {
			t.Fatalf("fetched vdisk %d, want %d", fetched.ID, meta.ID)
		}
	})
}

// TestServerReportSurvivesMasterBlackout: a failure report a chunk server
// files while no master is primary must reach the one that promotes. The
// primary master is killed and the chunk's primary replica rots; one client
// read fails over to a backup (StatusCorrupt is not reported by the client),
// so the primary server's own report is the only one filed. A report that
// makes one sweep of the endpoints and gives up is lost for good, and the
// chunk keeps its rotten primary.
func TestServerReportSurvivesMasterBlackout(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := failoverCluster(t)
		defer cleanup()
		vd, cleanup := chaosVDisk(t, c, 1)
		defer cleanup()
		golden := make([]byte, 64*util.KiB)
		util.NewRand(31).Fill(golden)
		if err := vd.WriteAt(golden, 0); err != nil {
			t.Fatal(err)
		}
		waitLogsConverged(t, c)
		meta := vd.Meta()
		mi, di, isHDD := replicaDevice(t, c, meta.Chunks[0].Replicas[0].Addr)
		if isHDD {
			t.Fatalf("primary %s on an HDD", meta.Chunks[0].Replicas[0].Addr)
		}
		// Rot only the SSD's store region, not the backup journals in its tail.
		ssd := c.Machines[mi].SSDFaults[di]
		storeLimit := util.AlignDown(int64(float64(ssd.Size())*0.9), util.ChunkSize)

		epoch := c.Masters[0].Epoch()
		c.KillMaster(0)
		ssd.CorruptRange(0, storeLimit, true)
		got := make([]byte, 4*util.KiB)
		if err := vd.ReadAt(got, 0); err != nil {
			t.Fatalf("read through the blackout: %v", err)
		}
		if !bytes.Equal(got, golden[:len(got)]) {
			t.Fatal("read returned bytes that were never written")
		}

		p := waitForPrimary(t, c, epoch, 5*time.Second)
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			if view := p.Snapshot().VDisks[meta.ID].Chunks[0].View; view > meta.Chunks[0].View {
				break
			}
			if !time.Now().Before(deadline) {
				t.Fatalf("chunk view still %d 5s after the promotion: the server's report was lost", meta.Chunks[0].View)
			}
		}
	})
}
