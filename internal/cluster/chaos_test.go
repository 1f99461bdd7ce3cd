package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ursa/internal/chunkserver"
	"ursa/internal/client"
	"ursa/internal/clock"
	"ursa/internal/core"
	"ursa/internal/journal"
	"ursa/internal/linearize"
	"ursa/internal/master"
	"ursa/internal/scrub"
	"ursa/internal/simdisk"
	"ursa/internal/util"
)

// chaosClusterOptions is the shared chaos-cluster shape: a configurable HDD
// overflow journal lets journal-death tests pin each backup to a single SSD
// journal.
func chaosClusterOptions(hddJournal bool) core.Options {
	return core.Options{
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
		HDDJournal:  hddJournal,
		NetLatency:  5 * time.Microsecond,
		ReplTimeout: 40 * time.Millisecond,
		CallTimeout: 250 * time.Millisecond,
	}
}

func chaosCluster(t *testing.T, hddJournal bool) (*core.Cluster, func()) {
	t.Helper()
	c, err := core.New(chaosClusterOptions(hddJournal))
	if err != nil {
		t.Fatal(err)
	}
	return c, c.Close
}

// chaosVDisk creates and opens a vdisk of the given chunks on a client of
// its own, and returns it with its close.
func chaosVDisk(t *testing.T, c *core.Cluster, chunks int64) (*client.VDisk, func()) {
	t.Helper()
	return openVDisk(t, c, "chaos-client", master.CreateVDiskReq{Name: "chaos", Size: chunks * util.ChunkSize})
}

// openVDisk creates req's vdisk and opens it on a new client of the given
// name, and returns it with the close of both.
func openVDisk(t *testing.T, c *core.Cluster, name string, req master.CreateVDiskReq) (*client.VDisk, func()) {
	t.Helper()
	cl := c.NewClient(name)
	_, err := cl.CreateVDisk(req)
	var vd *client.VDisk
	if err == nil {
		vd, err = cl.Open(req.Name)
	}
	if err != nil {
		cl.Close()
		t.Fatal(err)
	}
	return vd, func() {
		vd.Close()
		cl.Close()
	}
}

// TestChaosJournalDeathNoClientErrors is the acceptance scenario: every SSD
// journal in the cluster dies mid-workload and the client must not see a
// single failed I/O — appends re-route, then bypass straight to the backup
// stores. Deterministic (fixed seed, scripted schedule) and fast; this is
// the chaos smoke run wired into make check.
func TestChaosJournalDeathNoClientErrors(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := chaosCluster(t, false) // one SSD journal per backup: death = set dead
		defer cleanup()
		vd, cleanup := chaosVDisk(t, c, 2)
		defer cleanup()

		schedule := make([]ChaosEvent, 0, len(c.Machines))
		for m := range c.Machines {
			schedule = append(schedule, ChaosEvent{
				AtOp: 60, Kind: ChaosKillJournals, Machine: m,
			})
		}
		rep, err := RunChaos(c, vd, ChaosOptions{
			Ops:        300,
			Seed:       42,
			WriteFrac:  0.7,
			Schedule:   schedule,
			FinalSweep: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.WriteErrors != 0 || rep.ReadErrors != 0 {
			t.Fatalf("client saw failed I/O: %+v", rep)
		}
		if rep.EventsFired != len(schedule) {
			t.Errorf("fired %d/%d events", rep.EventsFired, len(schedule))
		}
		reg := c.Metrics()
		if got := reg.Counter(journal.MetricJournalDead).Load(); got == 0 {
			t.Error("no journal death recorded")
		}
		if got := reg.Counter(journal.MetricBypassWrites).Load(); got == 0 {
			t.Error("no bypass write recorded: ladder never reached WriteDirect")
		}
		if got := reg.Counter(simdisk.MetricFaultsInjected).Load(); got == 0 {
			t.Error("fault-injection counter never moved")
		}
	})
}

// TestChaosRandomLinearizable runs a seeded random fault schedule — journal
// massacre, dead backup HDD, limping SSD, server crash and restart — under
// a mixed workload and requires the whole history to stay linearizable.
// Availability may dip (counted, not fatal); stale data fails the run.
func TestChaosRandomLinearizable(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := chaosCluster(t, true)
		defer cleanup()
		vd, cleanup := chaosVDisk(t, c, 2)
		defer cleanup()

		ops := 400
		hist := newHistory(c, vd)
		rep, err := RunChaos(c, hist, ChaosOptions{
			Ops:        ops,
			Seed:       7,
			Schedule:   RandomSchedule(c, 7, ops),
			FinalSweep: true,
		})
		t.Logf("history hash %x", hist.sum())
		if err != nil {
			t.Fatal(err)
		}
		if rep.EventsFired == 0 {
			t.Fatal("random schedule injected nothing")
		}
		if rep.Sectors == 0 {
			t.Fatal("checker tracked no sectors")
		}
		t.Logf("chaos report: %+v", rep)
		auditReplicas(t, c, vd.ID(), 128*util.KiB)
	})
}

// scrubCluster is chaosCluster with an aggressive background scrubber, so
// bit-rot detection happens in test time rather than production time.
func scrubCluster(t *testing.T) (*core.Cluster, func()) {
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
		NetLatency:  5 * time.Microsecond,
		ReplTimeout: 40 * time.Millisecond,
		CallTimeout: 250 * time.Millisecond,
		Scrub: &scrub.Config{
			Interval:  25 * time.Millisecond,
			ReadSize:  4 * util.MiB,
			Rate:      512 * util.MiB,
			IdleGrace: 2 * time.Millisecond,
			Poll:      time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, c.Close
}

// replicaDevice maps a replica address like "m2/hdd1" back to its machine
// index and fault injector.
func replicaDevice(t *testing.T, c *core.Cluster, addr string) (int, int, bool) {
	t.Helper()
	var mi, di int
	if _, err := fmt.Sscanf(addr, "m%d/hdd%d", &mi, &di); err == nil {
		return mi, di, true
	}
	if _, err := fmt.Sscanf(addr, "m%d/ssd%d", &mi, &di); err == nil {
		return mi, di, false
	}
	t.Fatalf("unparsable replica addr %q", addr)
	return 0, 0, false
}

func waitClusterCounter(t *testing.T, c *core.Cluster, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for c.Metrics().Counter(name).Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s stuck at %d, want >= %d", name, c.Metrics().Counter(name).Load(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosBitRotScrubRepairs is the end-to-end integrity acceptance run
// (the scrub-smoke target): one backup replica's HDD silently rots under a
// live workload. The client never reads that replica — only the background
// scrubber can find the rot. The run must end with the corruption detected
// by the scrubber, the replica evicted by a master view change, and every
// byte the client ever read linearizable.
func TestChaosBitRotScrubRepairs(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := scrubCluster(t)
		defer cleanup()
		vd, cleanup := chaosVDisk(t, c, 1)
		defer cleanup()

		// Locate a backup replica of the (single) chunk and its backing device.
		mon := c.NewClient("monitor")
		defer mon.Close()
		meta, err := mon.OpenMeta("chaos")
		if err != nil {
			t.Fatal(err)
		}
		var rotAddr string
		for _, r := range meta.Chunks[0].Replicas {
			if !r.SSD {
				rotAddr = r.Addr
				break
			}
		}
		if rotAddr == "" {
			t.Fatal("chunk has no backup replica")
		}
		mi, di, isHDD := replicaDevice(t, c, rotAddr)
		if !isHDD {
			t.Fatalf("backup replica %s not on an HDD", rotAddr)
		}

		// Persistent whole-device rot on the backup's HDD, mid-workload. The
		// backup's journal lives on the machine's SSD and stays clean, so
		// writes keep committing; only the rotted store can betray the reader.
		checker := linearize.New()
		rep, err := RunChaos(c, vd, ChaosOptions{
			Ops:       300,
			Seed:      11,
			WriteFrac: 0.6,
			Schedule: []ChaosEvent{
				{AtOp: 50, Kind: ChaosCorruptDisk, Machine: mi, HDD: true, Disk: di, Persistent: true},
			},
			Checker: checker,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.EventsFired != 1 {
			t.Fatalf("rot never armed: %+v", rep)
		}

		// The scrubber must find the rot, count it, and trigger a view change.
		waitClusterCounter(t, c, scrub.MetricCorruptionsFound, 1)
		waitClusterCounter(t, c, chunkserver.MetricChecksumMismatches, 1)
		waitClusterCounter(t, c, master.MetricChunkRecoveries, 1)

		// The view change must evict the rotted replica from the placement.
		deadline := time.Now().Add(30 * time.Second)
		for {
			meta, err = mon.OpenMeta("chaos")
			if err != nil {
				t.Fatal(err)
			}
			evicted := true
			for _, r := range meta.Chunks[0].Replicas {
				if r.Addr == rotAddr {
					evicted = false
				}
			}
			if len(meta.Chunks[0].Replicas) == 3 && evicted {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("rotted replica %s still placed: %+v", rotAddr, meta.Chunks[0].Replicas)
			}
			time.Sleep(5 * time.Millisecond)
		}

		// With the rot STILL armed, sweep the whole workload region through the
		// client: every byte must match the shared linearizability history.
		buf := make([]byte, util.SectorSize)
		for off := int64(0); off < 128*util.KiB; off += util.SectorSize {
			if err := vd.ReadAt(buf, off); err != nil {
				t.Fatalf("sweep read at %d: %v", off, err)
			}
			if err := checker.CheckRead(off, buf); err != nil {
				t.Fatalf("corrupt payload reached the client at %d: %v", off, err)
			}
		}
		if got := c.Metrics().Counter(simdisk.MetricCorruptionsInjected).Load(); got != 1 {
			t.Errorf("%s = %d, want 1", simdisk.MetricCorruptionsInjected, got)
		}
	})
}

// TestChaosBitRotPrimaryReadPath rots the primary SSD's store region under
// a read-heavy workload with NO scrubber: the foreground read path alone
// must catch every mismatch, never hand rotted bytes to the client, and
// report the replica so the master moves the primary elsewhere.
func TestChaosBitRotPrimaryReadPath(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := chaosCluster(t, false)
		defer cleanup()
		vd, cleanup := chaosVDisk(t, c, 1)
		defer cleanup()

		mon := c.NewClient("monitor")
		defer mon.Close()
		meta, err := mon.OpenMeta("chaos")
		if err != nil {
			t.Fatal(err)
		}
		primary := meta.Chunks[0].Replicas[0]
		if !primary.SSD {
			t.Fatalf("first replica %+v is not the SSD primary", primary)
		}
		mi, di, isHDD := replicaDevice(t, c, primary.Addr)
		if isHDD {
			t.Fatalf("primary %s on an HDD", primary.Addr)
		}

		// Rot only the SSD's store region: its tail tenth holds backup
		// journals whose rot is a different test (journal-replay-corrupt).
		ssdSize := c.Machines[mi].SSDFaults[di].Size()
		storeLimit := util.AlignDown(int64(float64(ssdSize)*0.9), util.ChunkSize)

		checker := linearize.New()
		rep, err := RunChaos(c, vd, ChaosOptions{
			Ops:       300,
			Seed:      13,
			WriteFrac: 0.4, // read-heavy: the read path is the detector here
			Schedule: []ChaosEvent{
				{AtOp: 50, Kind: ChaosCorruptDisk, Machine: mi, Disk: di,
					Lo: 0, Hi: storeLimit, Persistent: true},
			},
			Checker: checker,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.EventsFired != 1 {
			t.Fatalf("rot never armed: %+v", rep)
		}

		waitClusterCounter(t, c, chunkserver.MetricChecksumMismatches, 1)
		waitClusterCounter(t, c, master.MetricChunkRecoveries, 1)

		// Sweep with the rot still armed; reads must come back clean from the
		// repaired placement.
		buf := make([]byte, util.SectorSize)
		for off := int64(0); off < 128*util.KiB; off += util.SectorSize {
			if err := vd.ReadAt(buf, off); err != nil {
				t.Fatalf("sweep read at %d: %v", off, err)
			}
			if err := checker.CheckRead(off, buf); err != nil {
				t.Fatalf("corrupt payload reached the client at %d: %v", off, err)
			}
		}
	})
}

// TestRecoverChunkRacesClientWrite drives master view changes concurrently
// with a client writing the same chunk: the race between RecoverChunk's
// repair/clone/SetView steps and in-flight writes must neither trip the
// race detector nor corrupt committed data.
func TestRecoverChunkRacesClientWrite(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := chaosCluster(t, true)
		defer cleanup()
		vd, cleanup := chaosVDisk(t, c, 1)
		defer cleanup()

		checker := linearize.New()
		var checkMu sync.Mutex
		const region = 64 * util.KiB

		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := util.NewRand(99)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				off := util.AlignDown(r.Int63n(region), util.SectorSize)
				data := make([]byte, util.SectorSize)
				r.Fill(data)
				err := vd.WriteAt(data, off)
				checkMu.Lock()
				if err != nil {
					checker.WriteUnresolved(off, data)
				} else {
					checker.WriteCommitted(off, data)
				}
				checkMu.Unlock()
			}
		}()

		// Repeated pure-repair view changes while the writer runs.
		views := 0
		for i := 0; i < 6; i++ {
			if _, err := c.Master.RecoverChunk(vd.ID(), 0, "", 0); err != nil {
				t.Errorf("recover %d: %v", i, err)
			} else {
				views++
			}
			time.Sleep(2 * time.Millisecond)
		}
		close(stop)
		wg.Wait()
		if views == 0 {
			t.Fatal("no view change completed")
		}

		// Everything the client committed must read back.
		buf := make([]byte, util.SectorSize)
		for off := int64(0); off < region; off += util.SectorSize {
			if err := vd.ReadAt(buf, off); err != nil {
				t.Fatalf("read at %d: %v", off, err)
			}
			checkMu.Lock()
			err := checker.CheckRead(off, buf)
			checkMu.Unlock()
			if err != nil {
				t.Fatalf("sweep at %d: %v", off, err)
			}
		}
	})
}
