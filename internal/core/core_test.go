package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"ursa/internal/client"
	"ursa/internal/clock"
	"ursa/internal/master"
	"ursa/internal/simdisk"
	"ursa/internal/util"
)

// testCluster builds a small cluster on the real clock with
// proportionally-fast device models: the SSD/HDD gap and all protocol
// behavior are preserved while every operation costs microseconds, so
// protocol timeouts keep their intended margins.
func testCluster(t *testing.T, mode Mode) (*Cluster, func()) {
	t.Helper()
	c, err := New(Options{
		Machines:       4,
		SSDsPerMachine: 1,
		HDDsPerMachine: 2,
		Mode:           mode,
		Clock:          clock.Realtime,
		SSDModel:       fastSSDModel(),
		HDDModel:       fastHDDModel(),
		HDDJournal:     true,
		NetLatency:     5 * time.Microsecond,
		ReplTimeout:    40 * time.Millisecond,
		CallTimeout:    250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, c.Close
}

// fastSSDModel keeps DefaultSSD's shape at 1/40 the latency.
func fastSSDModel() simdisk.SSDModel {
	return simdisk.SSDModel{
		Capacity:       2 * util.GiB,
		Parallelism:    32,
		ReadLatency:    2 * time.Microsecond,
		WriteLatency:   4 * time.Microsecond,
		ReadBandwidth:  20e9,
		WriteBandwidth: 12e9,
	}
}

// fastHDDModel keeps the mechanical cost structure (seek ≫ transfer,
// random ≫ sequential) at ~1/40 real scale.
func fastHDDModel() simdisk.HDDModel {
	return simdisk.HDDModel{
		Capacity:   4 * util.GiB,
		SeekMax:    400 * time.Microsecond,
		SeekSettle: 25 * time.Microsecond,
		RPM:        288000, // half rotation ≈ 104µs
		Bandwidth:  6e9,
		TrackSkip:  512 * util.KiB,
	}
}

func mustVDisk(t *testing.T, cl *client.Client, name string, size int64) (*client.VDisk, func()) {
	t.Helper()
	if _, err := cl.CreateVDisk(master.CreateVDiskReq{Name: name, Size: size}); err != nil {
		t.Fatal(err)
	}
	vd, err := cl.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	return vd, func() { vd.Close() }
}

func TestHybridWriteReadRoundTrip(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := testCluster(t, Hybrid)
		defer cleanup()
		cl := c.NewClient("c1")
		defer cl.Close()
		vd, cleanup := mustVDisk(t, cl, "disk1", 256*util.MiB)
		defer cleanup()

		r := util.NewRand(1)
		type wrote struct {
			off  int64
			data []byte
		}
		var history []wrote
		for i := 0; i < 30; i++ {
			n := (r.Intn(16) + 1) * util.SectorSize
			data := make([]byte, n)
			r.Fill(data)
			off := util.AlignDown(r.Int63n(vd.Size()-int64(n)), util.SectorSize)
			if err := vd.WriteAt(data, off); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			history = append(history, wrote{off, data})
		}
		for i, w := range history {
			got := make([]byte, len(w.data))
			if err := vd.ReadAt(got, w.off); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			// Later writes may have overwritten earlier ones; only check the
			// last write to each location.
			overwritten := false
			for _, later := range history[i+1:] {
				if later.off < w.off+int64(len(w.data)) &&
					w.off < later.off+int64(len(later.data)) {
					overwritten = true
					break
				}
			}
			if !overwritten && !bytes.Equal(got, w.data) {
				t.Fatalf("read %d at %d: data mismatch", i, w.off)
			}
		}
		st := vd.Stats()
		if st.Writes != 30 {
			t.Errorf("stats writes = %d", st.Writes)
		}
	})
}

func TestSSDOnlyMode(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := testCluster(t, SSDOnly)
		defer cleanup()
		cl := c.NewClient("c1")
		defer cl.Close()
		vd, cleanup := mustVDisk(t, cl, "disk1", 128*util.MiB)
		defer cleanup()

		data := make([]byte, 8*util.KiB)
		util.NewRand(2).Fill(data)
		if err := vd.WriteAt(data, 65536); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if err := vd.ReadAt(got, 65536); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("ssd-only round trip mismatch")
		}
	})
}

func TestHDDOnlyMode(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := testCluster(t, HDDOnly)
		defer cleanup()
		cl := c.NewClient("c1")
		defer cl.Close()
		vd, cleanup := mustVDisk(t, cl, "disk1", 128*util.MiB)
		defer cleanup()

		data := make([]byte, 4*util.KiB)
		util.NewRand(3).Fill(data)
		if err := vd.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if err := vd.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("hdd-only round trip mismatch")
		}
	})
}

func TestTinyVsLargeWritePaths(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := testCluster(t, Hybrid)
		defer cleanup()
		cl := c.NewClient("c1")
		defer cl.Close()
		vd, cleanup := mustVDisk(t, cl, "disk1", 128*util.MiB)
		defer cleanup()

		// 4 KB ≤ Tc: client-directed.
		if err := vd.WriteAt(make([]byte, 4*util.KiB), 0); err != nil {
			t.Fatal(err)
		}
		if st := vd.Stats(); st.TinyWrites != 1 {
			t.Errorf("tiny writes = %d, want 1", st.TinyWrites)
		}
		// 1 MB > Tj: primary-driven, journal bypass on backups.
		if err := vd.WriteAt(make([]byte, util.MiB), util.MiB); err != nil {
			t.Fatal(err)
		}
		if st := vd.Stats(); st.TinyWrites != 1 {
			t.Errorf("tiny writes after large = %d, want still 1", st.TinyWrites)
		}
	})
}

func TestBackupDataServedAfterPrimaryCrash(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := testCluster(t, Hybrid)
		defer cleanup()
		cl := c.NewClient("c1")
		defer cl.Close()
		vd, cleanup := mustVDisk(t, cl, "disk1", util.ChunkSize) // one chunk
		defer cleanup()

		data := make([]byte, 16*util.KiB)
		util.NewRand(4).Fill(data)
		if err := vd.WriteAt(data, 4096); err != nil {
			t.Fatal(err)
		}
		// Find and crash the chunk's primary (the only SSD replica).
		meta := vdiskMeta(t, c, "disk1")
		primary := meta.Chunks[0].Replicas[0].Addr
		c.CrashServer(primary)

		// Reads must now be served by a backup (journal-aware), and the data
		// must match what was written through the journal path.
		buf := make([]byte, len(data))
		if err := vd.ReadAt(buf, 4096); err != nil {
			t.Fatalf("read after primary crash: %v", err)
		}
		if !bytes.Equal(buf, data) {
			t.Error("backup served wrong data after primary crash")
		}
	})
}

// vdiskMeta fetches current metadata through the master without touching
// the lease.
func vdiskMeta(t *testing.T, c *Cluster, name string) master.VDiskMeta {
	t.Helper()
	cl := c.NewClient("meta-probe-" + name)
	defer cl.Close()
	meta, err := cl.OpenMeta(name)
	if err != nil {
		t.Fatal(err)
	}
	return meta
}

func TestWritesContinueThroughPrimaryCrash(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := testCluster(t, Hybrid)
		defer cleanup()
		cl := c.NewClient("c1")
		defer cl.Close()
		vd, cleanup := mustVDisk(t, cl, "disk1", util.ChunkSize)
		defer cleanup()

		data := make([]byte, 4*util.KiB)
		util.NewRand(5).Fill(data)
		if err := vd.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		meta := vdiskMeta(t, c, "disk1")
		primary := meta.Chunks[0].Replicas[0].Addr
		c.CrashServer(primary)

		// Writes after the crash must eventually commit (view change allocates
		// a replacement primary).
		data2 := make([]byte, 4*util.KiB)
		util.NewRand(6).Fill(data2)
		if err := vd.WriteAt(data2, 8192); err != nil {
			t.Fatalf("write after primary crash: %v", err)
		}
		got := make([]byte, len(data2))
		if err := vd.ReadAt(got, 8192); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data2) {
			t.Error("post-crash write corrupted")
		}
		// And the pre-crash data must still be there.
		got1 := make([]byte, len(data))
		if err := vd.ReadAt(got1, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got1, data) {
			t.Error("pre-crash data lost")
		}
		if vd.Stats().Failovers == 0 {
			t.Error("no failover recorded")
		}
	})
}

func TestLeaseExclusion(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := testCluster(t, Hybrid)
		defer cleanup()
		cl1 := c.NewClient("c1")
		defer cl1.Close()
		vd, cleanup := mustVDisk(t, cl1, "disk1", 128*util.MiB)
		defer cleanup()
		_ = vd

		cl2 := c.NewClient("c2")
		defer cl2.Close()
		if _, err := cl2.Open("disk1"); !errors.Is(err, util.ErrLeaseHeld) {
			t.Fatalf("second client open: %v", err)
		}
		// After the first client closes, the second can open.
		vd.Close()
		vd2, err := cl2.Open("disk1")
		if err != nil {
			t.Fatalf("open after close: %v", err)
		}
		vd2.Close()
	})
}

func TestStripedVDisk(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := testCluster(t, Hybrid)
		defer cleanup()
		cl := c.NewClient("c1")
		defer cl.Close()
		if _, err := cl.CreateVDisk(master.CreateVDiskReq{
			Name: "striped", Size: 512 * util.MiB, StripeGroup: 4, StripeUnit: 128 * util.KiB,
		}); err != nil {
			t.Fatal(err)
		}
		vd, err := cl.Open("striped")
		if err != nil {
			t.Fatal(err)
		}
		defer vd.Close()

		data := make([]byte, util.MiB)
		util.NewRand(7).Fill(data)
		if err := vd.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if err := vd.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("striped round trip mismatch")
		}
	})
}

func TestUnalignedIORejected(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := testCluster(t, Hybrid)
		defer cleanup()
		cl := c.NewClient("c1")
		defer cl.Close()
		vd, cleanup := mustVDisk(t, cl, "disk1", 128*util.MiB)
		defer cleanup()
		if err := vd.WriteAt(make([]byte, 100), 0); !errors.Is(err, util.ErrOutOfRange) {
			t.Errorf("unaligned write: %v", err)
		}
		if err := vd.ReadAt(make([]byte, 512), vd.Size()); !errors.Is(err, util.ErrOutOfRange) {
			t.Errorf("read past end: %v", err)
		}
	})
}

func TestVDiskDeleteAndRecreate(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := testCluster(t, Hybrid)
		defer cleanup()
		cl := c.NewClient("c1")
		defer cl.Close()
		if _, err := cl.CreateVDisk(master.CreateVDiskReq{Name: "tmp", Size: 64 * util.MiB}); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.CreateVDisk(master.CreateVDiskReq{Name: "tmp", Size: 64 * util.MiB}); !errors.Is(err, util.ErrExists) {
			t.Fatalf("duplicate create: %v", err)
		}
		if err := cl.DeleteVDisk("tmp"); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Open("tmp"); !errors.Is(err, util.ErrNotFound) {
			t.Fatalf("open deleted: %v", err)
		}
		if _, err := cl.CreateVDisk(master.CreateVDiskReq{Name: "tmp", Size: 64 * util.MiB}); err != nil {
			t.Fatalf("recreate: %v", err)
		}
	})
}

func TestClientCoreUpgrade(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := testCluster(t, Hybrid)
		defer cleanup()
		cl := c.NewClient("c1")
		defer cl.Close()
		vd, cleanup := mustVDisk(t, cl, "disk1", 128*util.MiB)
		defer cleanup()

		data := make([]byte, 8*util.KiB)
		util.NewRand(8).Fill(data)
		if err := vd.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		vd2, err := cl.UpgradeVDisk(vd)
		if err != nil {
			t.Fatal(err)
		}
		defer vd2.Close()
		// The new core must resume exactly: reads see old data, writes carry
		// on from the preserved version counters.
		got := make([]byte, len(data))
		if err := vd2.ReadAt(got, 0); err != nil {
			t.Fatalf("read after upgrade: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Error("upgrade lost data visibility")
		}
		if err := vd2.WriteAt(data, 16384); err != nil {
			t.Fatalf("write after upgrade: %v", err)
		}
		// The old handle must refuse service.
		if err := vd.WriteAt(data, 0); !errors.Is(err, util.ErrClosed) {
			t.Errorf("old core still writable: %v", err)
		}
	})
}

func TestChunkServerHotUpgradeDuringIO(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := testCluster(t, Hybrid)
		defer cleanup()
		cl := c.NewClient("c1")
		defer cl.Close()
		vd, cleanup := mustVDisk(t, cl, "disk1", util.ChunkSize)
		defer cleanup()

		meta := vdiskMeta(t, c, "disk1")
		primary := c.Server(meta.Chunks[0].Replicas[0].Addr)
		done := make(chan error, 1)
		go func() {
			data := make([]byte, 4*util.KiB)
			for i := 0; i < 20; i++ {
				if err := vd.WriteAt(data, int64(i)*4096); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		primary.Upgrade()
		if err := <-done; err != nil {
			t.Fatalf("I/O failed across hot upgrade: %v", err)
		}
		if primary.Stats().UpgradeGen != 1 {
			t.Errorf("upgrade generation = %d", primary.Stats().UpgradeGen)
		}
	})
}

func TestClientModulesStack(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := testCluster(t, Hybrid)
		defer cleanup()
		cl := c.NewClient("c1")
		defer cl.Close()
		vd, cleanup := mustVDisk(t, cl, "disk1", 128*util.MiB)
		defer cleanup()

		dev := client.WithRateLimit(client.WithCache(vd, 4*util.MiB), 1e12, c.Clock())
		data := make([]byte, 8*util.KiB)
		util.NewRand(9).Fill(data)
		if err := dev.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if err := dev.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("module stack round trip mismatch")
		}
	})
}

func TestSnapshotModule(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := testCluster(t, Hybrid)
		defer cleanup()
		cl := c.NewClient("c1")
		defer cl.Close()
		src, cleanup := mustVDisk(t, cl, "src", 64*util.MiB)
		defer cleanup()
		dst, cleanup := mustVDisk(t, cl, "dst", 64*util.MiB)
		defer cleanup()

		data := make([]byte, 64*util.KiB)
		util.NewRand(10).Fill(data)
		if err := src.WriteAt(data, util.MiB); err != nil {
			t.Fatal(err)
		}
		if err := client.Snapshot(src, dst); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if err := dst.ReadAt(got, util.MiB); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("snapshot copy mismatch")
		}
	})
}
