package bench

import (
	"strings"
	"time"

	"ursa/internal/master"
	"ursa/internal/redundancy"
	"ursa/internal/util"
	"ursa/internal/workload"
)

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
	artifact
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
		Title: "Backup redundancy: 3-way mirror vs RS(4,2) segment coding",
		Header: []string{"policy", "overhead", "wr IOPS", "wr p99", "rd p99",
			"degraded rd p99", "rebuild", "degraded errs"},
	}
	var doc ecBenchDoc
	policies := []struct {
		name string
		spec redundancy.Spec
	}{
		{"mirror(3)", redundancy.Spec{}},
		{"rs(4,2)", redundancy.Spec{Kind: redundancy.KindRS, N: 4, M: 2}},
	}
	for _, pol := range policies {
		pd := runECPolicy(cfg, &t, pol.name, pol.spec)
		doc.Policies = append(doc.Policies, pd)
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
	mirror, rs := doc.Policies[0], doc.Policies[1]
	t.check("rs backup-tier bytes per logical byte", rs.Overhead, "<=", 1.6)
	t.check("degraded read errors", float64(mirror.DegradedErrors+rs.DegradedErrors), "==", 0)
	t.writeArtifact(cfg, "ec", &doc)
	return t
}

// runECPolicy builds the fault figures' cluster at 7 machines — just wide
// enough for RS(4,2)'s six distinct holder machines plus the primary's, so an
// RS chunk's crashed primary has no replacement machine and stays degraded —
// and runs the measurement sequence for one policy. A step that fails is a
// failed check of t.
func runECPolicy(cfg Config, t *Table, name string, spec redundancy.Spec) ecPolicyDoc {
	pd := ecPolicyDoc{Policy: name}
	opts := faultOptions()
	opts.Machines = 7
	size := int64(cfg.pick(2, 1)) * util.ChunkSize
	pd.LogicalBytes = size
	sut, err := open(opts, master.CreateVDiskReq{Name: "bench-ec", Size: size, Redundancy: spec})
	if err != nil {
		t.failed(name+" build", err)
		return pd
	}
	defer sut.Close()
	c, cl, vd := sut.c, sut.cl, sut.vd

	// Backup-tier storage: every byte of store slot allocated on the HDD
	// servers, per logical byte of the vdisk.
	for _, addr := range c.ServerAddrs() {
		if strings.Contains(addr, "hdd") {
			pd.BackupBytes += c.Server(addr).StoreUsedBytes()
		}
	}
	pd.Overhead = float64(pd.BackupBytes) / float64(size)

	// Every window is 4 KiB at QD 8 over a working set inside chunk 0, so the
	// degraded window below exercises the crashed primary's chunk.
	window := func(pattern workload.Pattern, ops int, seedOff uint64, maxTime time.Duration) phase {
		return measure(vd, workload.Spec{
			Pattern: pattern, BlockSize: 4 * util.KiB, QueueDepth: 8, Ops: cfg.ops(ops),
			WorkingSet: 4 * util.MiB, Seed: cfg.Seed + seedOff, MaxTime: maxTime,
		})
	}
	wr := window(workload.RandWrite, 400, 21, cfg.cellTime()/2)
	pd.WriteIOPS, pd.WriteP99Ms = wr.IOPS, wr.P99LatMs
	rd := window(workload.RandRead, 400, 22, cfg.cellTime()/2)
	pd.ReadMeanMs, pd.ReadP99Ms = rd.MeanLatMs, rd.P99LatMs

	meta, err := cl.OpenMeta("bench-ec")
	if err != nil {
		t.failed(name+" meta", err)
		return pd
	}
	reps := meta.Chunks[0].Replicas

	// Rebuild: kill one backup replica and time the master's repair — a
	// whole-chunk clone for mirroring, a single segment for RS.
	dead := reps[1].Addr
	c.CrashServer(dead)
	rebuild := timed(func() { _, err = c.Master.RecoverChunk(vd.ID(), 0, dead, 0) })
	if err != nil {
		t.failed(name+" rebuild", err)
	} else {
		pd.RebuildS = rebuild.Seconds()
	}
	c.RestartServer(dead)

	// Degraded reads: crash the primary — the only full copy. No spare SSD
	// machine exists, so the chunk stays degraded for the whole window:
	// mirrored reads fail over to a backup copy, RS reads reconstruct from
	// the segment holders.
	c.CrashServer(reps[0].Addr)
	deg := window(workload.RandRead, 200, 23, cfg.cellTime())
	pd.DegradedMeanMs, pd.DegradedP99Ms, pd.DegradedErrors = deg.MeanLatMs, deg.P99LatMs, deg.Errors
	return pd
}
