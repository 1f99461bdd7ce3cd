//go:build goexperiment.synctest

package cluster

import (
	"encoding/json"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/chunkserver"
	"ursa/internal/clock"
	"ursa/internal/core"
	"ursa/internal/journal"
	"ursa/internal/master"
	"ursa/internal/objstore"
	"ursa/internal/proto"
	"ursa/internal/simdisk"
	"ursa/internal/util"
)

// TestBubbleCluster runs whole clusters inside synctest bubbles, one bubble
// per phase. synctest.Run returns only once every goroutine the phase started
// has exited, and virtual time moves only while every one of them waits
// durably — so a lock held across a model sleep with a waiter behind it, a
// wait on a channel or timer made outside the bubble, or a goroutine that
// Close does not join, hangs the phase instead of letting it return.
func TestBubbleCluster(t *testing.T) {
	t.Run("benchmark-setup", func(t *testing.T) {
		var setup, writes, model time.Duration
		wall := time.Now()
		synctest.Run(func() { setup, writes, model = benchmarkShape(t) })
		took := time.Since(wall)
		t.Logf("set-up %v and 400 QD-2 writes %v of model time; the phase %v of model time in %v of wall time",
			setup, writes, model, took)
		// Ten times faster than the model at least. The race detector slows
		// the phase several times over, to near that bound: there it only logs.
		if took > model/10 && !raceEnabled {
			t.Errorf("the phase took %v of wall time for %v of model time, want under a tenth", took, model)
		}
	})
	t.Run("segment-rebuild-race", func(t *testing.T) { synctest.Run(func() { segmentRebuildRace(t) }) })
	t.Run("random-chaos", func(t *testing.T) { synctest.Run(func() { randomChaos(t) }) })
	t.Run("gc-without-owner", func(t *testing.T) { synctest.Run(func() { gcWithoutOwner(t) }) })
}

// benchmarkShape is the benchmark's set-up — its cluster (3 machines of 2
// SSDs and 4 HDDs, the tick models), its 256 MiB vdisk, 32 MiB filled in
// 1 MiB writes from one goroutine per chunk, the journals drained — then 2 ×
// 200 writes of 4 KiB over the filled span, a drain and the teardown. It
// returns the model time of the set-up, of the writes and of it all.
func benchmarkShape(t *testing.T) (setup, writes, total time.Duration) {
	t0 := time.Now()
	c, err := core.New(core.Options{
		Machines: 3, SSDsPerMachine: 2, HDDsPerMachine: 4,
		Mode: core.Hybrid, Replication: 3, Clock: clock.Realtime,
		SSDModel: simdisk.SSDModel{
			Capacity: 16 * util.GiB, Parallelism: 32,
			ReadLatency: time.Millisecond, WriteLatency: 2 * time.Millisecond,
			ReadBandwidth: 220e6, WriteBandwidth: 120e6,
		},
		HDDModel: simdisk.HDDModel{
			Capacity: 64 * util.GiB, SeekMax: 160 * time.Millisecond,
			SeekSettle: 10 * time.Millisecond, RPM: 720,
			Bandwidth: 15e6, TrackSkip: 512 * util.KiB,
		},
		HDDJournal:  true,
		NetLatency:  time.Millisecond,
		ReplTimeout: 5 * time.Second,
		CallTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Error(err)
		return
	}
	defer c.Close()
	cl := c.NewClient("bench-client")
	if _, err := cl.CreateVDisk(master.CreateVDiskReq{Name: "bench", Size: 256 * util.MiB}); err != nil {
		t.Error(err)
		return
	}
	vd, err := cl.Open("bench")
	if err != nil {
		t.Error(err)
		return
	}
	defer vd.Close()
	const chunks, filled = 4, 8 * util.MiB // the filled span at the start of each chunk
	each := func(n int, f func(i int)) {
		var wg sync.WaitGroup
		for i := range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f(i)
			}()
		}
		wg.Wait()
	}
	drain := func() {
		var sets []*journal.Set
		for _, m := range c.Machines {
			sets = append(sets, m.JournalSets()...)
		}
		each(len(sets), func(i int) { sets[i].Drain() })
	}

	each(chunks, func(chunk int) {
		buf := make([]byte, util.MiB)
		for off := int64(0); off < filled; off += util.MiB {
			if err := vd.WriteAt(buf, int64(chunk)*util.ChunkSize+off); err != nil {
				t.Errorf("fill chunk %d at %d: %v", chunk, off, err)
				return
			}
		}
	})
	drain()
	setup = time.Since(t0)

	t1 := time.Now()
	each(2, func(w int) {
		r, buf := util.NewRand(uint64(w+1)), make([]byte, 4*util.KiB)
		for range 200 {
			off := int64(r.Intn(chunks))*util.ChunkSize + util.AlignDown(r.Int63n(filled), int64(len(buf)))
			if err := vd.WriteAt(buf, off); err != nil {
				t.Errorf("write at %d: %v", off, err)
				return
			}
		}
	})
	writes = time.Since(t1)
	drain()
	return setup, writes, time.Since(t0)
}

// segmentRebuildRace rebuilds an RS(4,2) segment holder from the primary's
// snapshot while two writers keep writing through that primary: the holder
// holds its chunk lock across the fetch, the primary across the snapshot
// read, and writers queue behind both.
func segmentRebuildRace(t *testing.T) {
	opts := ecOptions(8)
	opts.IOTimeout = 30 * time.Second // as TestChaosECHolderDiskDeath: a whole-stripe rebuild fits
	c, err := core.New(opts)
	if err != nil {
		t.Error(err)
		return
	}
	defer c.Close()
	cl := c.NewClient("ec-client")
	if _, err := cl.CreateVDisk(master.CreateVDiskReq{Name: "ec", Size: util.ChunkSize, Redundancy: rs42}); err != nil {
		t.Error(err)
		return
	}
	vd, err := cl.Open("ec")
	if err != nil {
		t.Error(err)
		return
	}
	defer vd.Close()
	meta, err := cl.OpenMeta("ec")
	if err != nil {
		t.Error(err)
		return
	}
	cm := meta.Chunks[0]

	var writers sync.WaitGroup
	var once sync.Once
	started := make(chan struct{}) // closed once a writer is ten writes in
	for w := range 2 {
		writers.Add(1)
		go func() {
			defer writers.Done()
			defer once.Do(func() { close(started) })
			r, buf := util.NewRand(uint64(w+1)), make([]byte, 4*util.KiB)
			for i := range 100 {
				if i == 10 {
					once.Do(func() { close(started) })
				}
				r.Fill(buf)
				// Segment 0 holds the chunk's first 16 MiB.
				if err := vd.WriteAt(buf, util.AlignDown(r.Int63n(rs42.SegSize()), int64(len(buf)))); err != nil {
					t.Errorf("writer %d, write %d: %v", w, i, err)
					return
				}
			}
		}()
	}
	<-started
	payload, _ := json.Marshal(chunkserver.FillReq{Source: cm.Replicas[0].Addr, View: cm.View})
	resp := c.Server(cm.Replicas[1].Addr).Handle(&proto.Message{
		Op: proto.OpFill, Chunk: blockstore.MakeChunkID(meta.ID, 0), View: cm.View, Payload: payload,
		Epoch: c.Master.Epoch(), // an admin op, fenced like the master's own
	})
	if resp.Status != proto.StatusOK {
		t.Errorf("segment rebuild under two writers = %s", resp.Status)
	}
	writers.Wait()
}

// randomChaos is TestChaosPoolLeakFree's run — journal massacre, dead disks,
// server crash and restart, all on the random schedule of seed 11 — ending in
// the teardown that must join every goroutine the faults left behind.
func randomChaos(t *testing.T) {
	c, err := core.New(chaosClusterOptions(true))
	if err != nil {
		t.Error(err)
		return
	}
	defer c.Close()
	cl := c.NewClient("leak-client")
	if _, err := cl.CreateVDisk(master.CreateVDiskReq{Name: "leak", Size: 2 * util.ChunkSize}); err != nil {
		t.Error(err)
		return
	}
	vd, err := cl.Open("leak")
	if err != nil {
		t.Error(err)
		return
	}
	defer vd.Close()
	const ops = 300
	rep, err := RunChaos(c, vd, ChaosOptions{
		Ops: ops, Seed: 11, WriteFrac: 0.6,
		Schedule:   RandomSchedule(c, 11, ops),
		FinalSweep: true,
	})
	if err != nil {
		t.Error(err)
		return
	}
	if rep.EventsFired == 0 {
		t.Error("random schedule injected nothing")
	}
}

// gcWithoutOwner snapshots a written vdisk, deletes the snapshot and calls
// nothing more: the primary's own reconcile passes, one a minute, must empty
// the object store within two of them.
func gcWithoutOwner(t *testing.T) {
	opts := chaosClusterOptions(false)
	model := objstore.TestModel()
	opts.ObjstoreModel = &model
	c, err := core.New(opts)
	if err != nil {
		t.Error(err)
		return
	}
	defer c.Close()
	cl := c.NewClient("gc-client")
	if _, err := cl.CreateVDisk(master.CreateVDiskReq{Name: "img", Size: util.ChunkSize}); err != nil {
		t.Error(err)
		return
	}
	vd, err := cl.Open("img")
	if err != nil {
		t.Error(err)
		return
	}
	defer vd.Close()
	buf := make([]byte, util.MiB)
	util.NewRand(5).Fill(buf)
	if err := vd.WriteAt(buf, 0); err != nil {
		t.Error(err)
		return
	}
	if err := cl.SnapshotVDisk("img", "snap"); err != nil {
		t.Error(err)
		return
	}
	if c.Objstore.UsedBytes() == 0 {
		t.Error("the snapshot flushed nothing")
		return
	}
	if err := cl.DeleteSnapshot("snap"); err != nil {
		t.Error(err)
		return
	}
	deleted := time.Now()
	for c.Objstore.UsedBytes() > 0 {
		if time.Since(deleted) > 2*time.Minute { // two reconcileEvery
			t.Errorf("%d bytes still in the object store 2m after the snapshot's delete", c.Objstore.UsedBytes())
			return
		}
		time.Sleep(time.Second)
	}
	t.Logf("the store emptied %v after the delete; %d segments reclaimed",
		time.Since(deleted), c.Metrics().Counter(master.MetricGCSegmentsReclaimed).Load())
}
