package bench

import (
	"strings"
	"time"

	"ursa/internal/clock"
	"ursa/internal/core"
	"ursa/internal/master"
	"ursa/internal/redundancy"
	"ursa/internal/util"
	"ursa/internal/workload"
)

// ecBenchJSON is FigEC's machine-readable artifact.
const ecBenchJSON = "BENCH_ec.json"

// ecPolicyDoc is one redundancy policy's measurements.
type ecPolicyDoc struct {
	Policy       string `json:"policy"`
	LogicalBytes int64  `json:"logical_bytes"`
	BackupBytes  int64  `json:"backup_store_bytes"`
	// Overhead is backup-tier bytes per logical byte: 2.0 for 3-way
	// mirroring, (N+M)/N for RS.
	Overhead       float64 `json:"backup_overhead_x"`
	WriteIOPS      float64 `json:"write_iops"`
	WriteP99Ms     float64 `json:"write_p99_ms"`
	ReadMeanMs     float64 `json:"healthy_read_mean_ms"`
	ReadP99Ms      float64 `json:"healthy_read_p99_ms"`
	DegradedMeanMs float64 `json:"degraded_read_mean_ms"`
	DegradedP99Ms  float64 `json:"degraded_read_p99_ms"`
	DegradedErrors int64   `json:"degraded_read_errors"`
	RebuildS       float64 `json:"segment_rebuild_s"`
}

type ecBenchDoc struct {
	Bench    string        `json:"bench"`
	Quick    bool          `json:"quick"`
	Policies []ecPolicyDoc `json:"policies"`
}

// FigEC compares the two backup-tier redundancy strategies on the same
// hybrid cluster: 3-way mirroring (the paper's configuration) against
// RS(4,2) segment coding. For each policy it measures the backup-tier
// storage overhead per logical byte, random-write and healthy random-read
// latency, degraded-read latency with the primary (the only full copy)
// crashed, and the wall time of rebuilding one lost backup replica — a
// 64 MB mirror clone vs a 16 MB segment rebuild. Results go to
// BENCH_ec.json.
func FigEC(cfg Config) Table {
	t := Table{
		ID:    "Fig EC",
		Title: "Backup redundancy: 3-way mirror vs RS(4,2) segment coding",
		Header: []string{"policy", "overhead", "wr IOPS", "wr p99", "rd p99",
			"degraded rd p99", "rebuild", "degraded errs"},
	}
	doc := ecBenchDoc{Bench: "ec", Quick: cfg.Quick}
	policies := []struct {
		name string
		spec redundancy.Spec
	}{
		{"mirror(3)", redundancy.Spec{}},
		{"rs(4,2)", redundancy.Spec{Kind: redundancy.KindRS, N: 4, M: 2}},
	}
	for _, pol := range policies {
		pd, notes := runECPolicy(cfg, pol.name, pol.spec)
		doc.Policies = append(doc.Policies, pd)
		t.Notes = append(t.Notes, notes...)
		t.Rows = append(t.Rows, []string{
			pol.name,
			f2(pd.Overhead) + "x",
			f0(pd.WriteIOPS),
			f1(pd.WriteP99Ms) + "ms",
			f1(pd.ReadP99Ms) + "ms",
			f1(pd.DegradedP99Ms) + "ms",
			f1(pd.RebuildS) + "s",
			f0(float64(pd.DegradedErrors)),
		})
	}
	if len(doc.Policies) == 2 {
		mirror, rs := doc.Policies[0], doc.Policies[1]
		t.Notes = append(t.Notes,
			"backup-tier overhead: mirror "+f2(mirror.Overhead)+"x vs rs "+f2(rs.Overhead)+
				"x of logical bytes (acceptance: rs <= 1.6x)")
		if rs.Overhead > 1.6 {
			t.Notes = append(t.Notes, "ACCEPTANCE FAIL: rs overhead above 1.6x")
		}
		if rs.DegradedErrors > 0 || mirror.DegradedErrors > 0 {
			t.Notes = append(t.Notes, "ACCEPTANCE FAIL: degraded reads failed")
		}
	}
	t.writeArtifact(cfg, ecBenchJSON, &doc)
	return t
}

// runECPolicy builds a 7-machine hybrid cluster — just wide enough for
// RS(4,2)'s six distinct holder machines plus the primary's, so an RS
// chunk's crashed primary has no replacement machine and stays degraded —
// and runs the measurement sequence for one policy.
func runECPolicy(cfg Config, name string, spec redundancy.Spec) (ecPolicyDoc, []string) {
	pd := ecPolicyDoc{Policy: name}
	var notes []string
	failed := func(what string, err error) (ecPolicyDoc, []string) {
		return pd, append(notes, name+" "+what+" failed: "+err.Error())
	}
	c, err := core.New(core.Options{
		Machines:       7,
		SSDsPerMachine: 1,
		HDDsPerMachine: 2,
		Mode:           core.Hybrid,
		Clock:          clock.Realtime,
		SSDModel:       benchSSD(),
		HDDModel:       benchHDD(),
		HDDJournal:     false,
		NetLatency:     netLatency,
		NICRate:        50e6,
		ReplTimeout:    5 * time.Second,
		CallTimeout:    20 * time.Second,
	})
	if err != nil {
		return failed("build", err)
	}
	defer c.Close()
	cl := c.NewClient("bench-client")
	defer cl.Close()

	nChunks := 2
	if cfg.Quick {
		nChunks = 1
	}
	size := int64(nChunks) * util.ChunkSize
	pd.LogicalBytes = size
	if _, err := cl.CreateVDisk(master.CreateVDiskReq{
		Name: "bench-ec", Size: size, Redundancy: spec,
	}); err != nil {
		return failed("vdisk", err)
	}
	vd, err := cl.Open("bench-ec")
	if err != nil {
		return failed("open", err)
	}
	defer vd.Close()

	// Backup-tier storage: every byte of store slot allocated on the HDD
	// servers, per logical byte of the vdisk.
	for _, addr := range c.ServerAddrs() {
		if strings.Contains(addr, "hdd") {
			pd.BackupBytes += c.Server(addr).StoreUsedBytes()
		}
	}
	pd.Overhead = float64(pd.BackupBytes) / float64(size)

	// Working set: inside chunk 0, so the degraded window below exercises
	// the crashed primary's chunk.
	region := int64(4 * util.MiB)
	wres := workload.Run(clock.Realtime, vd, workload.Spec{
		Pattern:    workload.RandWrite,
		BlockSize:  4 * util.KiB,
		QueueDepth: 8,
		Ops:        cfg.ops(400),
		WorkingSet: region,
		Seed:       cfg.Seed + 21,
		MaxTime:    cfg.cellTime() / 2,
	})
	pd.WriteIOPS = wres.IOPS()
	pd.WriteP99Ms = float64(wres.Lat.Quantile(0.99)) / float64(time.Millisecond)

	rres := workload.Run(clock.Realtime, vd, workload.Spec{
		Pattern:    workload.RandRead,
		BlockSize:  4 * util.KiB,
		QueueDepth: 8,
		Ops:        cfg.ops(400),
		WorkingSet: region,
		Seed:       cfg.Seed + 22,
		MaxTime:    cfg.cellTime() / 2,
	})
	pd.ReadMeanMs = float64(rres.Lat.Mean()) / float64(time.Millisecond)
	pd.ReadP99Ms = float64(rres.Lat.Quantile(0.99)) / float64(time.Millisecond)

	meta, err := cl.OpenMeta("bench-ec")
	if err != nil {
		return failed("meta", err)
	}
	reps := meta.Chunks[0].Replicas

	// Rebuild: kill one backup replica and time the master's repair — a
	// whole-chunk clone for mirroring, a single segment for RS.
	dead := reps[1].Addr
	c.CrashServer(dead)
	r0 := time.Now()
	if _, err := c.Master.RecoverChunk(vd.ID(), 0, dead); err != nil {
		notes = append(notes, name+" rebuild: "+err.Error())
	} else {
		pd.RebuildS = time.Since(r0).Seconds()
	}
	c.RestartServer(dead)

	// Degraded reads: crash the primary — the only full copy. No spare SSD
	// machine exists, so the chunk stays degraded for the whole window:
	// mirrored reads fail over to a backup copy, RS reads reconstruct from
	// the segment holders.
	c.CrashServer(reps[0].Addr)
	dres := workload.Run(clock.Realtime, vd, workload.Spec{
		Pattern:    workload.RandRead,
		BlockSize:  4 * util.KiB,
		QueueDepth: 8,
		Ops:        cfg.ops(200),
		WorkingSet: region,
		Seed:       cfg.Seed + 23,
		MaxTime:    cfg.cellTime(),
	})
	pd.DegradedMeanMs = float64(dres.Lat.Mean()) / float64(time.Millisecond)
	pd.DegradedP99Ms = float64(dres.Lat.Quantile(0.99)) / float64(time.Millisecond)
	pd.DegradedErrors = dres.Errors
	return pd, notes
}
