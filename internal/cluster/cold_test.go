package cluster

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"ursa/internal/chunkserver"
	"ursa/internal/client"
	"ursa/internal/clock"
	"ursa/internal/coldtier"
	"ursa/internal/core"
	"ursa/internal/linearize"
	"ursa/internal/master"
	"ursa/internal/objstore"
	"ursa/internal/util"
)

// coldCluster is the chaos cluster with a near-free object-store model:
// these tests exercise the snapshot/clone/demand-fetch protocol, not the
// cold tier's latency shape.
func coldCluster(t *testing.T) (*core.Cluster, func()) {
	t.Helper()
	opts := chaosClusterOptions(false)
	model := objstore.TestModel()
	opts.ObjstoreModel = &model
	c, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, c.Close
}

// fillVDisk writes golden into vd at offset 0 in 1 MiB slices and returns
// a private copy of it.
func fillVDisk(t *testing.T, vd *client.VDisk, golden []byte) {
	t.Helper()
	const step = util.MiB
	for off := 0; off < len(golden); off += step {
		n := step
		if n > len(golden)-off {
			n = len(golden) - off
		}
		if err := vd.WriteAt(golden[off:off+n], int64(off)); err != nil {
			t.Fatalf("fill write at %d: %v", off, err)
		}
	}
}

// TestSnapshotCloneColdReads is the cold tier's end-to-end smoke: snapshot
// a written vdisk, thin-clone it, and require clone reads to demand-fetch
// the exact golden bytes — including zeros for never-written ranges — while
// the source stays independent of clone writes.
func TestSnapshotCloneColdReads(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := coldCluster(t)
		defer cleanup()
		cl := c.NewClient("cold-client")
		defer cl.Close()

		if _, err := cl.CreateVDisk(master.CreateVDiskReq{
			Name: "golden", Size: util.ChunkSize,
		}); err != nil {
			t.Fatal(err)
		}
		src, err := cl.Open("golden")
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()

		golden := make([]byte, 3*util.MiB)
		util.NewRand(7).Fill(golden)
		fillVDisk(t, src, golden)

		if err := cl.SnapshotVDisk("golden", "snap"); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.CloneFromSnapshot(master.CloneReq{Snapshot: "snap", Name: "clone"}); err != nil {
			t.Fatal(err)
		}
		cvd, err := cl.Open("clone")
		if err != nil {
			t.Fatal(err)
		}
		defer cvd.Close()

		got := make([]byte, len(golden))
		if err := cvd.ReadAt(got, 0); err != nil {
			t.Fatalf("clone read: %v", err)
		}
		if !bytes.Equal(got, golden) {
			t.Fatal("clone read does not match the golden image")
		}
		// A range the golden image never wrote has no extent refs (zero
		// suppression) and must read as zeros without touching the store.
		tail := make([]byte, util.MiB)
		if err := cvd.ReadAt(tail, int64(8*util.MiB)); err != nil {
			t.Fatalf("clone tail read: %v", err)
		}
		for i, b := range tail {
			if b != 0 {
				t.Fatalf("unwritten clone range byte %d = %#x, want 0", i, b)
			}
		}

		// Copy-on-write: a clone write must not leak into the source.
		patch := make([]byte, util.SectorSize)
		util.NewRand(8).Fill(patch)
		if err := cvd.WriteAt(patch, 0); err != nil {
			t.Fatalf("clone write: %v", err)
		}
		back := make([]byte, util.SectorSize)
		if err := cvd.ReadAt(back, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, patch) {
			t.Fatal("clone write did not stick")
		}
		if err := src.ReadAt(back, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, golden[:util.SectorSize]) {
			t.Fatal("clone write leaked into the source vdisk")
		}

		reg := c.Metrics()
		if got := reg.Counter(chunkserver.MetricColdFetches).Load(); got == 0 {
			t.Error("no demand fetch recorded")
		}
		if got := reg.Counter(objstore.MetricObjGets).Load(); got == 0 {
			t.Error("object store served no GETs")
		}
	})
}

// TestSnapshotImmutableUnderRacingWrites snapshots a vdisk while writers
// hammer it, then requires the snapshot to be frozen: two clones read
// identical bytes, and the image does not shift under later source writes.
// Run with -race this also sweeps the flush-vs-write and fetch-vs-write
// paths for data races.
func TestSnapshotImmutableUnderRacingWrites(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := coldCluster(t)
		defer cleanup()
		cl := c.NewClient("race-client")
		defer cl.Close()

		if _, err := cl.CreateVDisk(master.CreateVDiskReq{
			Name: "hot", Size: util.ChunkSize,
		}); err != nil {
			t.Fatal(err)
		}
		src, err := cl.Open("hot")
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()

		region := int64(2 * util.MiB)
		seed := make([]byte, region)
		util.NewRand(21).Fill(seed)
		fillVDisk(t, src, seed)

		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := util.NewRand(uint64(100 + w))
				buf := make([]byte, 8*util.KiB)
				for {
					select {
					case <-stop:
						return
					default:
					}
					r.Fill(buf)
					off := util.AlignDown(r.Int63n(region-int64(len(buf))), util.SectorSize)
					_ = src.WriteAt(buf, off)
				}
			}(w)
		}
		if err := cl.SnapshotVDisk("hot", "frozen"); err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
		close(stop)
		wg.Wait()

		read := func(name string) []byte {
			t.Helper()
			if _, err := cl.CloneFromSnapshot(master.CloneReq{Snapshot: "frozen", Name: name}); err != nil {
				t.Fatal(err)
			}
			vd, err := cl.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			defer vd.Close()
			buf := make([]byte, region)
			if err := vd.ReadAt(buf, 0); err != nil {
				t.Fatal(err)
			}
			return buf
		}
		img1 := read("c1")

		// Shift the source after the snapshot; the frozen image must not move.
		later := make([]byte, region)
		util.NewRand(22).Fill(later)
		fillVDisk(t, src, later)

		img2 := read("c2")
		if !bytes.Equal(img1, img2) {
			t.Fatal("two clones of one snapshot read different bytes")
		}
	})
}

// TestChaosColdReadsSurviveObjstoreStall runs the chaos workload over a
// thin clone while the object store stalls, rots GET payloads, and is
// partitioned away from one machine — demand fetches must retry through it
// and every read the client acks must stay linearizable against the golden
// image (zero corrupt payloads).
func TestChaosColdReadsSurviveObjstoreStall(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := coldCluster(t)
		defer cleanup()
		cl := c.NewClient("stall-client")
		defer cl.Close()

		if _, err := cl.CreateVDisk(master.CreateVDiskReq{
			Name: "base", Size: util.ChunkSize,
		}); err != nil {
			t.Fatal(err)
		}
		src, err := cl.Open("base")
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close() // closed by hand below; this covers a failure before
		region := int64(256 * util.KiB)
		golden := make([]byte, region)
		util.NewRand(33).Fill(golden)
		fillVDisk(t, src, golden)
		if err := cl.SnapshotVDisk("base", "bsnap"); err != nil {
			t.Fatal(err)
		}
		src.Close()

		if _, err := cl.CloneFromSnapshot(master.CloneReq{Snapshot: "bsnap", Name: "bclone"}); err != nil {
			t.Fatal(err)
		}
		cvd, err := cl.Open("bclone")
		if err != nil {
			t.Fatal(err)
		}
		defer cvd.Close()

		// The clone starts as the golden image, not zeros: seed the checker
		// with the committed state so first reads check against it.
		checker := linearize.New()
		checker.WriteCommitted(0, golden)

		schedule := []ChaosEvent{
			{AtOp: 5, Kind: ChaosObjstoreStall, Stall: 2 * time.Millisecond},
			{AtOp: 40, Kind: ChaosObjstoreCorrupt, Count: 8},
			{AtOp: 80, Kind: ChaosObjstorePartition, Machine: 0},
			{AtOp: 150, Kind: ChaosObjstoreHealPartition, Machine: 0},
			{AtOp: 170, Kind: ChaosObjstoreHeal},
		}
		rep, err := RunChaos(c, cvd, ChaosOptions{
			Ops:        250,
			Region:     region,
			WriteFrac:  0.4,
			Seed:       99,
			Schedule:   schedule,
			FinalSweep: true,
			Checker:    checker,
		})
		if err != nil {
			t.Fatal(err) // any corrupt or stale payload fails here
		}
		if rep.EventsFired != len(schedule) {
			t.Errorf("fired %d/%d events", rep.EventsFired, len(schedule))
		}
		if got := c.Metrics().Counter(chunkserver.MetricColdFetches).Load(); got == 0 {
			t.Error("workload never demand-fetched: clone was not cold")
		}
	})
}

// TestColdGCReclaimsAfterMaterialization soaks demand fetch against
// concurrent GC passes, then deletes the snapshot once the clone has fully
// materialized and requires GC to reclaim every dead segment byte.
func TestColdGCReclaimsAfterMaterialization(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := coldCluster(t)
		defer cleanup()
		cl := c.NewClient("gc-client")
		defer cl.Close()

		if _, err := cl.CreateVDisk(master.CreateVDiskReq{
			Name: "img", Size: util.ChunkSize,
		}); err != nil {
			t.Fatal(err)
		}
		src, err := cl.Open("img")
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close() // closed by hand below; this covers a failure before
		region := int64(2 * util.MiB)
		golden := make([]byte, region)
		util.NewRand(55).Fill(golden)
		fillVDisk(t, src, golden)
		if err := cl.SnapshotVDisk("img", "isnap"); err != nil {
			t.Fatal(err)
		}
		src.Close()

		if _, err := cl.CloneFromSnapshot(master.CloneReq{Snapshot: "isnap", Name: "iclone"}); err != nil {
			t.Fatal(err)
		}
		cvd, err := cl.Open("iclone")
		if err != nil {
			t.Fatal(err)
		}
		defer cvd.Close()

		// Readers race GC passes: with the snapshot still live nothing may be
		// reclaimed, and every fetched byte must match the image.
		var wg sync.WaitGroup
		readErr := make(chan error, 2)
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := util.NewRand(uint64(200 + w))
				buf := make([]byte, 64*util.KiB)
				for i := 0; i < 60; i++ {
					off := util.AlignDown(r.Int63n(region-int64(len(buf))), util.SectorSize)
					if err := cvd.ReadAt(buf, off); err != nil {
						readErr <- err
						return
					}
					if !bytes.Equal(buf, golden[off:off+int64(len(buf))]) {
						readErr <- util.ErrCorrupt
						return
					}
				}
			}(w)
		}
		reclaimed := c.Metrics().Counter(master.MetricGCSegmentsReclaimed)
		for i := 0; i < 20; i++ {
			pm := c.PrimaryMaster()
			if pm == nil {
				t.Fatal("no primary master")
			}
			before := reclaimed.Load()
			if _, err := pm.Reconcile(); err != nil {
				t.Fatalf("reconcile pass: %v", err)
			}
			if n := reclaimed.Load() - before; n != 0 {
				t.Fatalf("gc reclaimed %d segments while the snapshot is live", n)
			}
		}
		wg.Wait()
		select {
		case err := <-readErr:
			t.Fatalf("reader under gc soak: %v", err)
		default:
		}

		// Materialize every replica: cover the whole cold range with writes so
		// each replica fetches its extents.
		fillVDisk(t, cvd, golden)
		if err := cl.DeleteSnapshot("isnap"); err != nil {
			t.Fatal(err)
		}

		// A reconcile pass finds the replicas drained, clears the cold refs and
		// deletes the segments no table names any more; poll it until the store
		// is empty.
		deadline := time.Now().Add(20 * time.Second)
		for c.Objstore.UsedBytes() > 0 {
			pm := c.PrimaryMaster()
			if pm == nil {
				t.Fatal("no primary master")
			}
			if _, err := pm.Reconcile(); err != nil {
				t.Fatalf("reconcile pass: %v", err)
			}
			if time.Now().After(deadline) {
				t.Fatalf("gc never drained the store: %d bytes still used", c.Objstore.UsedBytes())
			}
			time.Sleep(10 * time.Millisecond)
		}
		if got := c.Metrics().Counter(master.MetricGCSegmentsReclaimed).Load(); got == 0 {
			t.Error("gc reclaimed segments but the counter never moved")
		}
		// The clone must still read the full image from local replicas.
		got := make([]byte, region)
		if err := cvd.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, golden) {
			t.Fatal("clone bytes diverged after materialization and gc")
		}
	})
}

// TestColdNoticeSurvivesMasterFailover: that a clone's replicas are fully
// local must reach a master even when they drained during a metadata
// blackout. The primary master is killed while every replica still has one
// extent to fetch; the last extents land with no primary to hear of it. Once
// a standby has promoted, its reconcile pass finds every replica drained:
// the master drops the chunk's cold refs, and with the snapshot deleted GC
// reclaims every segment. A drain nobody learnt of would pin the refs, and
// the segments under them, for good.
func TestColdNoticeSurvivesMasterFailover(t *testing.T) {
	clock.Test(t, func() {
		opts := chaosClusterOptions(false)
		model := objstore.TestModel()
		opts.ObjstoreModel = &model
		opts.Masters = 3
		opts.MasterPrimacyTTL = 150 * time.Millisecond
		c, err := core.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cl := c.NewClient("notice-client")
		defer cl.Close()

		if _, err := cl.CreateVDisk(master.CreateVDiskReq{Name: "img", Size: util.ChunkSize}); err != nil {
			t.Fatal(err)
		}
		src, err := cl.Open("img")
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close() // closed by hand below; this covers a failure before
		golden := make([]byte, 2*coldtier.ExtentSize)
		util.NewRand(77).Fill(golden)
		fillVDisk(t, src, golden)
		if err := cl.SnapshotVDisk("img", "nsnap"); err != nil {
			t.Fatal(err)
		}
		src.Close()
		if _, err := cl.CloneFromSnapshot(master.CloneReq{Snapshot: "nsnap", Name: "nclone"}); err != nil {
			t.Fatal(err)
		}
		cvd, err := cl.Open("nclone")
		if err != nil {
			t.Fatal(err)
		}
		defer cvd.Close()

		// All but the last extent, on every replica (a write fetches what it
		// overlaps at each of them).
		last := int64(len(golden)) - coldtier.ExtentSize
		fillVDisk(t, cvd, golden[:last])

		// The standbys must hold the clone before one of them has to serve it.
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if c.Masters[1].LogSeq() == c.Masters[0].LogSeq() && c.Masters[2].LogSeq() == c.Masters[0].LogSeq() {
				break
			}
			if !time.Now().Before(deadline) {
				t.Fatal("standbys never caught up with the primary's log")
			}
		}
		epoch := c.Masters[0].Epoch()
		c.KillMaster(0)
		if err := cvd.WriteAt(golden[last:], last); err != nil {
			t.Fatalf("write through the blackout: %v", err)
		}
		if c.PrimaryMaster() != nil {
			t.Log("a standby promoted before the last extent landed: the run did not exercise the blackout")
		}
		waitForPrimary(t, c, epoch, 5*time.Second)

		if err := cl.DeleteSnapshot("nsnap"); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(20 * time.Second)
		for c.Objstore.UsedBytes() > 0 {
			if pm := c.PrimaryMaster(); pm != nil {
				if _, err := pm.Reconcile(); err != nil {
					t.Fatalf("reconcile pass: %v", err)
				}
			}
			if time.Now().After(deadline) {
				refs := -1
				if meta, err := cl.OpenMeta("nclone"); err == nil && len(meta.Chunks) > 0 {
					refs = len(meta.Chunks[0].Cold)
				}
				t.Fatalf("cold refs never dropped after the failover: %d bytes still in the object store, the master still lists %d cold refs for the chunk",
					c.Objstore.UsedBytes(), refs)
			}
			time.Sleep(10 * time.Millisecond)
		}
		got := make([]byte, len(golden))
		if err := cvd.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, golden) {
			t.Fatal("clone bytes diverged after materialization and gc")
		}
	})
}
