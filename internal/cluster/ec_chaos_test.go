package cluster

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/client"
	"ursa/internal/clock"
	"ursa/internal/core"
	"ursa/internal/linearize"
	"ursa/internal/master"
	"ursa/internal/proto"
	"ursa/internal/redundancy"
	"ursa/internal/simdisk"
	"ursa/internal/util"
)

// rs42 is the erasure-coding policy under test: 4 data + 2 parity segments
// per chunk, tolerating any two lost segment holders.
var rs42 = redundancy.Spec{Kind: redundancy.KindRS, N: 4, M: 2}

// ecCluster builds a hybrid cluster wide enough for RS(4,2) placement: the
// primary's machine plus six distinct holder machines, plus optional spares
// for rebuild targets.
func ecCluster(t *testing.T, machines int) (*core.Cluster, func()) {
	t.Helper()
	return ecClusterWith(t, ecOptions(machines))
}

func ecClusterWith(t *testing.T, opts core.Options) (*core.Cluster, func()) {
	t.Helper()
	c, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, c.Close
}

func ecOptions(machines int) core.Options {
	return core.Options{
		Machines:       machines,
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
	}
}

func ecVDisk(t *testing.T, c *core.Cluster, chunks int64) (*client.VDisk, func()) {
	t.Helper()
	return openVDisk(t, c, "ec-client", master.CreateVDiskReq{Name: "ec", Size: chunks * util.ChunkSize, Redundancy: rs42})
}

// TestChaosECSegmentDeath is the erasure-coding acceptance scenario (the
// ec-smoke target): M=2 segment holders of an RS(4,2) chunk die
// mid-workload and the client must not see a single failed or stale I/O —
// writes keep committing on >=N acks while the master rebuilds the lost
// segments onto fresh servers. Deterministic: fixed seed, scripted
// schedule, linearizability-checked throughout plus a final sweep.
func TestChaosECSegmentDeath(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := ecCluster(t, 8) // 1 primary + 6 holders + 1 spare machine
		defer cleanup()
		vd, cleanup := ecVDisk(t, c, 1)
		defer cleanup()

		mon := c.NewClient("monitor")
		defer mon.Close()
		meta, err := mon.OpenMeta("ec")
		if err != nil {
			t.Fatal(err)
		}
		reps := meta.Chunks[0].Replicas
		if len(reps) != 1+rs42.N+rs42.M {
			t.Fatalf("placement has %d replicas, want %d", len(reps), 1+rs42.N+rs42.M)
		}
		schedule := []ChaosEvent{
			{AtOp: 60, Kind: ChaosCrashServer, Server: reps[1].Addr},
			{AtOp: 60, Kind: ChaosCrashServer, Server: reps[2].Addr},
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
			t.Fatalf("client saw failed I/O with %d segment holders dead: %+v", len(schedule), rep)
		}
		if rep.EventsFired != len(schedule) {
			t.Errorf("fired %d/%d events", rep.EventsFired, len(schedule))
		}
	})
}

// TestChaosECHolderDiskDeath kills the HDD under one RS(4,2) segment holder
// while its server stays up — the fault the version probe used to hide: the
// holder keeps acking journal appends and answering OpGetVersion from
// memory at the newest version, so recovery saw a whole chunk and never
// rebuilt the segment. The holder must stop vouching for the chunk once it
// has reported its own device, and the master must re-home the position.
// Zero failed or corrupt client I/Os throughout; afterwards the segment
// lives on a different server and all 1+N+M replicas agree on one version.
func TestChaosECHolderDiskDeath(t *testing.T) {
	clock.Test(t, func() {
		// A write caught mid-flight by the view change can leave the primary one
		// version ahead of every holder; the client reports it and waits while
		// the master rebuilds the whole stripe from the primary's snapshot —
		// 6 × 16 MiB, several seconds under the race detector. Its I/O budget
		// must cover that, or the report times out and the write fails.
		opts := ecOptions(8) // 1 primary + 6 holders + 1 spare machine
		opts.IOTimeout = 30 * time.Second
		c, cleanup := ecClusterWith(t, opts)
		defer cleanup()
		vd, cleanup := ecVDisk(t, c, 1)
		defer cleanup()

		mon := c.NewClient("monitor")
		defer mon.Close()
		meta, err := mon.OpenMeta("ec")
		if err != nil {
			t.Fatal(err)
		}
		// Segment 0's holder: the workload region lives in segment 0, so every
		// write lands bytes in this holder's journal that replay cannot put on
		// the dead disk.
		victim := meta.Chunks[0].Replicas[1].Addr
		mi, di, isHDD := replicaDevice(t, c, victim)
		if !isHDD {
			t.Fatalf("segment holder %s not on an HDD", victim)
		}
		checker := linearize.New()
		rep, err := RunChaos(c, vd, ChaosOptions{
			Ops:       400,
			Seed:      42,
			WriteFrac: 0.7,
			Schedule:  []ChaosEvent{{AtOp: 60, Kind: ChaosKillDisk, Machine: mi, HDD: true, Disk: di}},
			Checker:   checker,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.WriteErrors != 0 || rep.ReadErrors != 0 || rep.EventsFired != 1 {
			t.Fatalf("client saw failed I/O with one holder's disk dead: %+v", rep)
		}

		// The holder's own report must get the position re-homed; nothing here
		// nudges the master.
		deadline := time.Now().Add(30 * time.Second)
		for {
			if meta, err = mon.OpenMeta("ec"); err != nil {
				t.Fatal(err)
			}
			if meta.Chunks[0].Replicas[1].Addr != victim {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("segment 0 still on %s, whose disk is dead: view %d", victim, meta.Chunks[0].View)
			}
			time.Sleep(5 * time.Millisecond)
		}

		// Every replica of the final placement answers at one version. A holder
		// rebuilt while the last writes were in flight may trail them; the next
		// write or open would report that, which the loop stands in for.
		for {
			if meta, err = mon.OpenMeta("ec"); err != nil {
				t.Fatal(err)
			}
			versions := make([]uint64, 0, len(meta.Chunks[0].Replicas))
			for _, r := range meta.Chunks[0].Replicas {
				resp := c.Server(r.Addr).Handle(&proto.Message{
					Op: proto.OpGetVersion, Payload: proto.EncodeChunkIDs(blockstore.MakeChunkID(meta.ID, 0)),
				})
				if resp.Status == proto.StatusOK && resp.View == meta.Chunks[0].View {
					versions = append(versions, resp.Version)
				}
			}
			agree := len(versions) == 1+rs42.N+rs42.M
			for _, v := range versions {
				agree = agree && v == versions[0]
			}
			if agree {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replicas never converged: versions %v of %+v", versions, meta.Chunks[0])
			}
			_, _ = c.PrimaryMaster().RecoverChunk(meta.ID, 0, "", 0)
			time.Sleep(5 * time.Millisecond)
		}

		// With the disk still dead, every byte must match the history.
		buf := make([]byte, util.SectorSize)
		for off := int64(0); off < 128*util.KiB; off += util.SectorSize {
			if err := vd.ReadAt(buf, off); err != nil {
				t.Fatalf("sweep read at %d: %v", off, err)
			}
			if err := checker.CheckRead(off, buf); err != nil {
				t.Fatalf("sweep at %d: %v", off, err)
			}
		}
	})
}

// TestECDegradedReadReconstructs crashes an RS chunk's primary — the only
// full copy — plus one data-segment holder, and requires reads to come back
// byte-identical by decoding the covered range from the surviving segments.
// With one SSD machine and the rest hosting holders there is no replacement
// primary, so the chunk stays pinned degraded for the whole test.
func TestECDegradedReadReconstructs(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := ecCluster(t, 7) // no spare machine: a dead primary stays dead
		defer cleanup()
		vd, cleanup := ecVDisk(t, c, 1)
		defer cleanup()

		const region = 256 * util.KiB
		want := make([]byte, region)
		util.NewRand(1234).Fill(want)
		for off := int64(0); off < region; off += 64 * util.KiB {
			if err := vd.WriteAt(want[off:off+64*util.KiB], off); err != nil {
				t.Fatalf("write at %d: %v", off, err)
			}
		}

		mon := c.NewClient("monitor")
		defer mon.Close()
		meta, err := mon.OpenMeta("ec")
		if err != nil {
			t.Fatal(err)
		}
		reps := meta.Chunks[0].Replicas
		// Kill the primary and segment 0's holder: the region lives entirely in
		// segment 0, so every read must reconstruct from the other segments.
		c.CrashServer(reps[0].Addr)
		c.CrashServer(reps[1].Addr)

		got := make([]byte, 32*util.KiB)
		for off := int64(0); off < region; off += int64(len(got)) {
			if err := vd.ReadAt(got, off); err != nil {
				t.Fatalf("degraded read at %d: %v", off, err)
			}
			if !bytes.Equal(got, want[off:off+int64(len(got))]) {
				t.Fatalf("degraded read at %d returned wrong bytes", off)
			}
		}
	})
}

// TestECPrimaryLossDecodesReplacement crashes an RS(4,2) chunk's primary —
// its only full copy — together with the holders of data segment 0 and
// parity segment 4, and reports the primary. Four holders are left, exactly
// N: the master places a replacement primary on the spare machine and fills
// it naming no primary, so the replica decodes the whole chunk from those
// four, segment 0 from parity. The new primary must serve every written
// byte itself, and the client must read every byte back.
func TestECPrimaryLossDecodesReplacement(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := ecCluster(t, 8) // 1 primary + 6 holders + 1 spare machine
		defer cleanup()
		vd, cleanup := ecVDisk(t, c, 1)
		defer cleanup()

		// One region at the start of each data segment.
		const region = 64 * util.KiB
		want := make([][]byte, rs42.N)
		for seg := range want {
			want[seg] = make([]byte, region)
			util.NewRand(uint64(seg + 1)).Fill(want[seg])
			if err := vd.WriteAt(want[seg], int64(seg)*rs42.SegSize()); err != nil {
				t.Fatalf("write in segment %d: %v", seg, err)
			}
		}

		mon := c.NewClient("monitor")
		defer mon.Close()
		meta, err := mon.OpenMeta("ec")
		if err != nil {
			t.Fatal(err)
		}
		old := meta.Chunks[0].Replicas
		for _, pos := range []int{0, 1, 5} { // the primary, data segment 0, parity segment 4
			c.CrashServer(old[pos].Addr)
		}
		cm, err := c.PrimaryMaster().RecoverChunk(meta.ID, 0, old[0].Addr, 0)
		if err != nil {
			t.Fatal(err)
		}
		primary := cm.Replicas[0].Addr
		if primary == old[0].Addr || !cm.Replicas[0].SSD {
			t.Fatalf("primary after recovery: %+v, want a replacement SSD replica", cm.Replicas[0])
		}
		if got := c.Server(primary).Stats().Clones; got != 1 {
			t.Fatalf("replacement primary counted %d fills, want 1", got)
		}

		id := blockstore.MakeChunkID(meta.ID, 0)
		v := c.Server(primary).Handle(&proto.Message{Op: proto.OpGetVersion, Payload: proto.EncodeChunkIDs(id)})
		if v.Status != proto.StatusOK || v.View != cm.View {
			t.Fatalf("replacement primary answers %s at view %d, want ok at %d", v.Status, v.View, cm.View)
		}
		got := make([]byte, region)
		for seg, w := range want {
			r := c.Server(primary).Handle(&proto.Message{
				Op: proto.OpRead, Chunk: id, Off: int64(seg) * rs42.SegSize(), Length: region, View: v.View, Version: v.Version,
			})
			if r.Status != proto.StatusOK || !bytes.Equal(r.Payload, w) {
				t.Fatalf("replacement primary's segment %d: %s, bytes match %v", seg, r.Status, bytes.Equal(r.Payload, w))
			}
			if err := vd.ReadAt(got, int64(seg)*rs42.SegSize()); err != nil {
				t.Fatalf("client read of segment %d: %v", seg, err)
			}
			if !bytes.Equal(got, w) {
				t.Fatalf("client read of segment %d returned wrong bytes", seg)
			}
		}
	})
}

// TestAllReplicasCorruptCleanError is the integrity floor: when every
// replica of a mirrored chunk has rotted on disk, the client must get a
// clean error that unwraps to util.ErrCorrupt — never garbage bytes — and
// must get it in bounded time (the far side's settling re-reads and the
// client's failover rotation must not loop forever).
func TestAllReplicasCorruptCleanError(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := chaosCluster(t, false)
		defer cleanup()
		vd, cleanup := chaosVDisk(t, c, 1)
		defer cleanup()

		// A write above the journal-bypass threshold lands in every replica's
		// store — the regions about to rot.
		data := make([]byte, 128*util.KiB)
		util.NewRand(77).Fill(data)
		if err := vd.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}

		mon := c.NewClient("monitor")
		defer mon.Close()
		meta, err := mon.OpenMeta("chaos")
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range meta.Chunks[0].Replicas {
			mi, di, isHDD := replicaDevice(t, c, r.Addr)
			faults := c.Machines[mi].SSDFaults
			if isHDD {
				faults = c.Machines[mi].HDDFaults
			}
			fi := faults[di]
			fi.CorruptRange(0, fi.Size(), true)
		}

		start := time.Now()
		buf := make([]byte, util.SectorSize)
		rerr := vd.ReadAt(buf, 0)
		elapsed := time.Since(start)
		if rerr == nil {
			t.Fatal("read of universally rotted data succeeded")
		}
		if !errors.Is(rerr, util.ErrCorrupt) {
			t.Fatalf("read error %v does not unwrap to ErrCorrupt", rerr)
		}
		if elapsed > 30*time.Second {
			t.Fatalf("corrupt read took %v: settling re-reads looped", elapsed)
		}
	})
}
