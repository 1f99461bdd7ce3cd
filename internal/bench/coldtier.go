package bench

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"ursa/internal/chunkserver"
	"ursa/internal/client"
	"ursa/internal/master"
	"ursa/internal/objstore"
	"ursa/internal/simdisk"
	"ursa/internal/util"
)

type coldtierBenchDoc struct {
	artifact

	// Thin clone vs full data copy of the golden image.
	ImageBytes  int64   `json:"image_bytes"`
	DataBytes   int64   `json:"data_bytes"`
	FullCopyMs  float64 `json:"full_copy_ms"`
	ThinCloneMs float64 `json:"thin_clone_ms"`
	Speedup     float64 `json:"clone_speedup"`

	// Demand-fetch read latency, cold (first touch) vs warm (materialized).
	ColdP50Ms   float64 `json:"cold_read_p50_ms"`
	ColdP99Ms   float64 `json:"cold_read_p99_ms"`
	WarmP50Ms   float64 `json:"warm_read_p50_ms"`
	WarmP99Ms   float64 `json:"warm_read_p99_ms"`
	ColdFetches int64   `json:"cold_fetches"`
	WarmHits    int64   `json:"cold_fetch_hit_warm"`

	// Snapshot churn: overwrite + snapshot rounds, every snapshot but the
	// last deleted, then one reconcile pass, whose GC phase reclaims.
	ChurnRounds     int     `json:"churn_rounds"`
	ChurnUsedBytes  int64   `json:"churn_used_bytes"`
	ChurnDeadBytes  int64   `json:"churn_dead_bytes"`
	ReclaimedBytes  int64   `json:"gc_reclaimed_bytes"`
	ReclaimFraction float64 `json:"gc_reclaim_fraction"`
	GCSegments      int64   `json:"gc_segments_reclaimed"`

	// Cold reads under object-store stall + transient GET rot.
	ChaosReads      int   `json:"chaos_reads"`
	ChaosCorrupt    int   `json:"chaos_corrupt_payloads"`
	ChaosReadErrors int   `json:"chaos_read_errors"`
	ObjGets         int64 `json:"objstore_gets"`
}

// coldtierObjModel is the bench's object-store shape: a few milliseconds
// to first byte and a wide pipe, so cold fetches are visibly slower than
// local SSD reads without dominating the run.
func coldtierObjModel() objstore.Model {
	return objstore.Model{
		PutLatency:    4 * time.Millisecond,
		GetLatency:    4 * time.Millisecond,
		DeleteLatency: time.Millisecond,
		Bandwidth:     2e9,
		Parallelism:   64,
	}
}

// FigColdtier measures the cold tier end to end: provisioning a thin clone
// from a golden-image snapshot vs copying the image in full, cold
// (demand-fetch) vs warm read latency on the clone, GC reclaim under
// snapshot churn, and cold-read integrity while the object store stalls
// and rots GET payloads. Results go to BENCH_coldtier.json.
func FigColdtier(cfg Config) Table {
	t := Table{
		Title:  "Cold tier: thin clones, demand-fetch latency, GC reclaim, stall chaos",
		Header: []string{"metric", "value"},
	}
	// Fast device models (not the ×10 slow-motion figures): this bench
	// gauges the cold tier's protocol costs and its ratios against a
	// local-disk baseline, not paper-scale absolute IOPS.
	opts := benchOptions()
	opts.Machines, opts.SSDsPerMachine, opts.HDDsPerMachine = 4, 1, 2
	opts.SSDModel = simdisk.SSDModel{
		Capacity: 8 * util.GiB, Parallelism: 32,
		ReadLatency: 20 * time.Microsecond, WriteLatency: 40 * time.Microsecond,
		ReadBandwidth: 3e9, WriteBandwidth: 2e9,
	}
	opts.HDDModel = simdisk.HDDModel{
		Capacity: 16 * util.GiB, SeekMax: 2 * time.Millisecond,
		SeekSettle: 100 * time.Microsecond, RPM: 72000,
		Bandwidth: 800e6, TrackSkip: 512 * util.KiB,
	}
	opts.NetLatency = 50 * time.Microsecond
	opts.ReplTimeout, opts.CallTimeout = 2*time.Second, 10*time.Second
	objModel := coldtierObjModel()
	opts.ObjstoreModel = &objModel

	imageBytes := int64(cfg.pick(16, 4)) * util.ChunkSize // 1 GiB golden image
	dataBytes := imageBytes / 4                           // written region; the rest is thin zeros
	doc := coldtierBenchDoc{ImageBytes: imageBytes, DataBytes: dataBytes}

	// --- Golden image -----------------------------------------------------
	sut, err := open(opts, master.CreateVDiskReq{Name: "golden", Size: imageBytes})
	if err != nil {
		return t.failed("build", err)
	}
	defer sut.Close()
	c, cl, src, reg := sut.c, sut.cl, sut.vd, sut.c.Metrics()
	golden := make([]byte, dataBytes)
	util.NewRand(cfg.Seed + 1).Fill(golden)
	for off := int64(0); off < dataBytes; off += util.MiB {
		if err := src.WriteAt(golden[off:off+util.MiB], off); err != nil {
			return t.failed("fill golden", err)
		}
	}
	if err := cl.SnapshotVDisk("golden", "gold-snap"); err != nil {
		return t.failed("snapshot", err)
	}

	// --- Leg 1: thin clone vs full data copy ------------------------------
	dst, err := sut.add(cl, master.CreateVDiskReq{Name: "fullcopy", Size: imageBytes})
	if err != nil {
		return t.failed("copy target", err)
	}
	doc.FullCopyMs = ms(timed(func() { err = client.Snapshot(src, dst) }))
	if err != nil {
		return t.failed("full copy", err)
	}

	// Only the clone is timed; opening it is what any vdisk costs.
	doc.ThinCloneMs = ms(timed(func() {
		_, err = cl.CloneFromSnapshot(master.CloneReq{Snapshot: "gold-snap", Name: "thin"})
	}))
	if err != nil {
		return t.failed("thin clone", err)
	}
	doc.Speedup = ratio(doc.FullCopyMs, doc.ThinCloneMs)

	// --- Leg 2: cold vs warm reads on the clone ---------------------------
	thin, err := sut.attach(cl, "thin")
	if err != nil {
		return t.failed("thin clone", err)
	}
	readPass := func(vd client.Device) ([]time.Duration, error) {
		var lats []time.Duration
		buf := make([]byte, 64*util.KiB)
		r := util.NewRand(cfg.Seed + 2)
		for i := 0; i < cfg.ops(512); i++ {
			off := util.AlignDown(r.Int63n(dataBytes-int64(len(buf))), util.SectorSize)
			var err error
			lats = append(lats, timed(func() { err = vd.ReadAt(buf, off) }))
			if err != nil {
				return nil, err
			}
		}
		return lats, nil
	}
	cold, err := readPass(thin)
	if err != nil {
		return t.failed("cold read pass", err)
	}
	warm, err := readPass(thin)
	if err != nil {
		return t.failed("warm read pass", err)
	}
	doc.ColdP50Ms = ms(util.ExactQuantile(cold, 0.50))
	doc.ColdP99Ms = ms(util.ExactQuantile(cold, 0.99))
	doc.WarmP50Ms = ms(util.ExactQuantile(warm, 0.50))
	doc.WarmP99Ms = ms(util.ExactQuantile(warm, 0.99))
	doc.ColdFetches = reg.Counter(chunkserver.MetricColdFetches).Load()

	// Warm tier: a cached clone absorbs repeat reads of cold ranges.
	// clone provisions one more thin clone of the golden snapshot and opens it.
	clone := func(name string) (*client.VDisk, error) {
		if _, err := cl.CloneFromSnapshot(master.CloneReq{Snapshot: "gold-snap", Name: name}); err != nil {
			return nil, err
		}
		return sut.attach(cl, name)
	}
	cvd, err := clone("cached")
	if err != nil {
		return t.failed("cached clone", err)
	}
	cached := client.WithCache(cvd, dataBytes)
	buf := make([]byte, 64*util.KiB)
	for pass := 0; pass < 2; pass++ {
		for off := int64(0); off < 8*util.MiB; off += int64(len(buf)) {
			if err := cached.ReadAt(buf, off); err != nil {
				return t.failed("cached read", err)
			}
		}
	}
	doc.WarmHits = reg.Counter(client.MetricColdWarmHits).Load()

	// --- Leg 3: snapshot churn + GC reclaim -------------------------------
	churn, err := sut.add(cl, master.CreateVDiskReq{Name: "churn", Size: util.ChunkSize})
	if err != nil {
		return t.failed("churn vdisk", err)
	}
	rounds := cfg.pick(5, 3)
	churnData := make([]byte, 8*util.MiB)
	for i := 0; i < rounds; i++ {
		util.NewRand(cfg.Seed + 10 + uint64(i)).Fill(churnData)
		for off := int64(0); off < int64(len(churnData)); off += util.MiB {
			if err := churn.WriteAt(churnData[off:off+util.MiB], off); err != nil {
				return t.failed("churn write", err)
			}
		}
		if err := cl.SnapshotVDisk("churn", fmt.Sprintf("churn-%d", i)); err != nil {
			return t.failed("churn snapshot", err)
		}
	}
	doc.ChurnRounds = rounds
	// Named until the deletes below, so no pass can reclaim before this.
	used0 := c.Objstore.UsedBytes()
	for i := 0; i < rounds-1; i++ {
		if err := cl.DeleteSnapshot(fmt.Sprintf("churn-%d", i)); err != nil {
			return t.failed("churn delete", err)
		}
	}
	pm := c.PrimaryMaster()
	if pm == nil {
		return t.failed("gc", errors.New("no primary master"))
	}
	if _, err := pm.Reconcile(); err != nil {
		return t.failed("reconcile pass", err)
	}
	used1 := c.Objstore.UsedBytes()
	doc.ChurnUsedBytes = used0
	doc.ReclaimedBytes = used0 - used1
	// Dead bytes = everything the deleted churn snapshots flushed: rounds-1
	// full overwrites of the same 8 MiB region.
	doc.ChurnDeadBytes = int64(rounds-1) * int64(len(churnData))
	doc.ReclaimFraction = ratio(float64(doc.ReclaimedBytes), float64(doc.ChurnDeadBytes))
	doc.GCSegments = reg.Counter(master.MetricGCSegmentsReclaimed).Load()

	// --- Leg 4: cold reads under objstore stall + GET rot -----------------
	chaos, err := clone("chaos")
	if err != nil {
		return t.failed("chaos clone", err)
	}
	c.Objstore.Stall(2 * time.Millisecond)
	c.Objstore.CorruptReads(32)
	r := util.NewRand(cfg.Seed + 3)
	probe := make([]byte, 64*util.KiB)
	for i := 0; i < cfg.ops(256); i++ {
		off := util.AlignDown(r.Int63n(dataBytes-int64(len(probe))), util.SectorSize)
		doc.ChaosReads++
		if err := chaos.ReadAt(probe, off); err != nil {
			doc.ChaosReadErrors++
			continue
		}
		if !bytes.Equal(probe, golden[off:off+int64(len(probe))]) {
			doc.ChaosCorrupt++
		}
	}
	c.Objstore.Heal()
	doc.ObjGets = reg.Counter(objstore.MetricObjGets).Load()

	// --- Report -----------------------------------------------------------
	t.Rows = append(t.Rows,
		[]string{"golden image", util.FormatBytes(doc.ImageBytes) + " (" + util.FormatBytes(doc.DataBytes) + " data)"},
		[]string{"full data copy", f0(doc.FullCopyMs) + " ms"},
		[]string{"thin clone", f2(doc.ThinCloneMs) + " ms"},
		[]string{"clone speedup", f0(doc.Speedup) + "x"},
		[]string{"cold read p50/p99", f2(doc.ColdP50Ms) + " / " + f2(doc.ColdP99Ms) + " ms"},
		[]string{"warm read p50/p99", f2(doc.WarmP50Ms) + " / " + f2(doc.WarmP99Ms) + " ms"},
		[]string{"demand fetches", f0(float64(doc.ColdFetches))},
		[]string{"warm-tier hits on cold ranges", f0(float64(doc.WarmHits))},
		[]string{"churn rounds", f0(float64(doc.ChurnRounds))},
		[]string{"gc reclaimed", util.FormatBytes(doc.ReclaimedBytes) + " of " + util.FormatBytes(doc.ChurnDeadBytes) + " dead"},
		[]string{"gc reclaim fraction", f2(doc.ReclaimFraction)},
		[]string{"chaos reads", f0(float64(doc.ChaosReads))},
		[]string{"chaos corrupt payloads", f0(float64(doc.ChaosCorrupt))},
		[]string{"chaos read errors", f0(float64(doc.ChaosReadErrors))},
	)
	// Wall time against model time; the quick image is small enough (92-129x
	// measured) that host noise straddles the floor.
	t.checkFull("thin clone speedup over full copy", doc.Speedup, ">=", 100)
	t.check("gc reclaim fraction of dead extent bytes", doc.ReclaimFraction, ">=", 0.8)
	t.check("corrupt payloads served under objstore chaos", float64(doc.ChaosCorrupt), "==", 0)
	t.check("clone reads demand-fetched", float64(doc.ColdFetches), ">", 0)
	t.Notes = append(t.Notes,
		"clone = O(metadata) extent-table copy; bytes materialize on demand, CoW on first write;",
		"churn dead bytes = the deleted snapshots' overwritten flushes; GC deletes every segment",
		"no table names (a segment is named whole or not at all); chaos leg arms a stall plus",
		"32 rotted GETs — the per-extent CRCs force refetches, so corrupt payloads must be zero.")

	t.writeArtifact(cfg, "coldtier", &doc)
	return t
}
