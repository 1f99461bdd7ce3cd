package cluster

import (
	"errors"
	"testing"
	"time"

	"ursa/internal/clock"
	"ursa/internal/core"
	"ursa/internal/linearize"
	"ursa/internal/master"
	"ursa/internal/simdisk"
	"ursa/internal/util"
)

func testCluster(t *testing.T) (*core.Cluster, func()) {
	t.Helper()
	c, err := core.New(core.Options{
		Machines:       4,
		SSDsPerMachine: 1,
		HDDsPerMachine: 2,
		Mode:           core.Hybrid,
		Clock:          clock.Realtime,
		SSDModel: simdisk.SSDModel{
			Capacity: 2 * util.GiB, Parallelism: 32,
			ReadLatency: 2 * time.Microsecond, WriteLatency: 4 * time.Microsecond,
			ReadBandwidth: 20e9, WriteBandwidth: 12e9,
		},
		HDDModel: simdisk.HDDModel{
			Capacity: 4 * util.GiB, SeekMax: 400 * time.Microsecond,
			SeekSettle: 25 * time.Microsecond, RPM: 288000,
			Bandwidth: 6e9, TrackSkip: 512 * util.KiB,
		},
		HDDJournal:  true,
		NetLatency:  5 * time.Microsecond,
		ReplTimeout: 40 * time.Millisecond,
		CallTimeout: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, c.Close
}

func TestChunkPlacementHelpers(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := testCluster(t)
		defer cleanup()
		cl := c.NewClient("c1")
		defer cl.Close()
		if _, err := cl.CreateVDisk(master.CreateVDiskReq{Name: "d", Size: 2 * util.ChunkSize}); err != nil {
			t.Fatal(err)
		}
		cm, err := ChunkPlacement(cl, "d", 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(cm.Replicas) != 3 || !cm.Replicas[0].SSD {
			t.Errorf("placement = %+v", cm)
		}
		addr, err := PrimaryAddr(cl, "d", 0)
		if err != nil || addr == "" {
			t.Errorf("primary = %q, %v", addr, err)
		}
		if _, err := ChunkPlacement(cl, "d", 99); !errors.Is(err, util.ErrNotFound) {
			t.Errorf("out-of-range chunk: %v", err)
		}
	})
}

func TestViewChangeAfterCrash(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := testCluster(t)
		defer cleanup()
		cl := c.NewClient("c1")
		defer cl.Close()
		if _, err := cl.CreateVDisk(master.CreateVDiskReq{Name: "d", Size: util.ChunkSize}); err != nil {
			t.Fatal(err)
		}
		vd, err := cl.Open("d")
		if err != nil {
			t.Fatal(err)
		}
		defer vd.Close()
		// Write some state, then kill the primary.
		if err := vd.WriteAt(make([]byte, 8192), 0); err != nil {
			t.Fatal(err)
		}
		primary, err := PrimaryAddr(cl, "d", 0)
		if err != nil {
			t.Fatal(err)
		}
		c.CrashServer(primary)
		// A write forces the client to detect the failure and report it.
		if err := vd.WriteAt(make([]byte, 8192), 16384); err != nil {
			t.Fatal(err)
		}
		cm, err := WaitViewChange(c, cl, "d", 0, 1, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range cm.Replicas {
			if r.Addr == primary {
				t.Errorf("crashed server still in placement: %+v", cm)
			}
		}
		if TotalServerStats(c).Clones == 0 {
			t.Error("no recovery clone recorded")
		}
	})
}

func TestTrafficMonitor(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := testCluster(t)
		defer cleanup()
		cl := c.NewClient("c1")
		defer cl.Close()
		if _, err := cl.CreateVDisk(master.CreateVDiskReq{Name: "d", Size: util.ChunkSize}); err != nil {
			t.Fatal(err)
		}
		vd, err := cl.Open("d")
		if err != nil {
			t.Fatal(err)
		}
		defer vd.Close()

		mon := StartTrafficMonitor(c, 10*time.Millisecond)
		buf := make([]byte, 64*util.KiB)
		for i := 0; i < 20; i++ {
			if err := vd.WriteAt(buf, int64(i)*int64(len(buf))); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(30 * time.Millisecond)
		samples := mon.Stop()
		if len(samples) == 0 {
			t.Fatal("no samples collected")
		}
		var total int64
		for _, s := range samples {
			total += s.Bytes
		}
		if total == 0 {
			t.Error("monitor observed no traffic")
		}
	})
}

// TestLinearizabilityUnderCrashes is the protocol torture test: a stream
// of writes and reads with the primary crashed mid-stream must satisfy
// per-chunk linearizability (§4, Appendix A).
func TestLinearizabilityUnderCrashes(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := testCluster(t)
		defer cleanup()
		cl := c.NewClient("c1")
		defer cl.Close()
		if _, err := cl.CreateVDisk(master.CreateVDiskReq{Name: "d", Size: util.ChunkSize}); err != nil {
			t.Fatal(err)
		}
		vd, err := cl.Open("d")
		if err != nil {
			t.Fatal(err)
		}
		defer vd.Close()

		checker := linearize.New()
		r := util.NewRand(77)
		const region = 64 * util.KiB // small region: heavy overwrites
		crashed := false
		for i := 0; i < 120; i++ {
			if i == 40 {
				// Kill the primary mid-stream.
				primary, perr := PrimaryAddr(cl, "d", 0)
				if perr == nil {
					c.CrashServer(primary)
					crashed = true
				}
			}
			off := util.AlignDown(r.Int63n(region), util.SectorSize)
			if r.Float64() < 0.6 {
				data := make([]byte, util.SectorSize)
				r.Fill(data)
				if err := vd.WriteAt(data, off); err != nil {
					checker.WriteUnresolved(off, data)
				} else {
					checker.WriteCommitted(off, data)
				}
			} else {
				buf := make([]byte, util.SectorSize)
				if err := vd.ReadAt(buf, off); err != nil {
					continue // availability hiccup, not a consistency issue
				}
				if err := checker.CheckRead(off, buf); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
		}
		if !crashed {
			t.Fatal("crash was never injected")
		}
		// Full final sweep.
		buf := make([]byte, util.SectorSize)
		for off := int64(0); off < region; off += util.SectorSize {
			if err := vd.ReadAt(buf, off); err != nil {
				t.Fatalf("final read at %d: %v", off, err)
			}
			if err := checker.CheckRead(off, buf); err != nil {
				t.Fatalf("final sweep at %d: %v", off, err)
			}
		}
	})
}
