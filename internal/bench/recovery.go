package bench

import (
	"time"

	"ursa/internal/clock"
	"ursa/internal/core"
	"ursa/internal/journal"
	"ursa/internal/master"
	"ursa/internal/simdisk"
	"ursa/internal/util"
	"ursa/internal/workload"
)

// recoveryBenchJSON is FigRecovery's machine-readable artifact.
const recoveryBenchJSON = "BENCH_recovery.json"

// recoveryPhase is one workload window of the fault timeline.
type recoveryPhase struct {
	Phase     string  `json:"phase"`
	IOPS      float64 `json:"iops"`
	MBps      float64 `json:"mbps"`
	MeanLatMs float64 `json:"mean_lat_ms"`
	P99LatMs  float64 `json:"p99_lat_ms"`
	Errors    int64   `json:"errors"`
	WallS     float64 `json:"wall_s"` // window wall time incl. straggling ops
}

type recoveryBenchDoc struct {
	Bench  string          `json:"bench"`
	Quick  bool            `json:"quick"`
	Phases []recoveryPhase `json:"phases"`
	// Fault and recovery counters accumulated over the whole timeline.
	FaultsInjected  int64   `json:"disk_faults_injected"`
	JournalsDead    int64   `json:"journals_dead"`
	BypassWrites    int64   `json:"journal_bypass_writes"`
	ReplayErrors    int64   `json:"journal_replay_errors"`
	ChunkRecoveries int64   `json:"chunk_recoveries"`
	RecoveryP50Ms   float64 `json:"recovery_p50_ms"`
	RecoveryMaxMs   float64 `json:"recovery_max_ms"`
}

// FigRecovery measures client-visible service through the failure ladder:
// a healthy window of 4 KiB random writes; a window after every SSD
// journal on one machine dies (appends must re-route, then bypass straight
// to the backup HDDs — zero failed client I/Os is the acceptance bar); a
// window with a whole backup HDD dead, which the owning chunk server
// reports to the master for a §4.2.2 view change; and a recovered window
// after re-replication. Results and the fault/recovery counters go to
// BENCH_recovery.json.
func FigRecovery(cfg Config) Table {
	t := Table{
		ID:     "Fig R",
		Title:  "Service under faults: journal death, disk death, view-change recovery",
		Header: []string{"phase", "IOPS", "MB/s", "mean lat", "p99 lat", "errors"},
	}
	c, err := core.New(core.Options{
		Machines:       4,
		SSDsPerMachine: 1, // one journal SSD per machine: its death is total
		HDDsPerMachine: 2,
		Mode:           core.Hybrid,
		Clock:          clock.Realtime,
		SSDModel:       benchSSD(),
		HDDModel:       benchHDD(),
		HDDJournal:     false, // no overflow journal: dead SSD journal = bare ladder
		NetLatency:     netLatency,
		NICRate:        50e6,
		ReplTimeout:    5 * time.Second,
		CallTimeout:    20 * time.Second,
	})
	if err != nil {
		t.Notes = append(t.Notes, "build failed: "+err.Error())
		return t
	}
	defer c.Close()
	cl := c.NewClient("bench-client")
	defer cl.Close()

	nChunks := 8
	if cfg.Quick {
		nChunks = 4
	}
	size := int64(nChunks) * util.ChunkSize
	if _, err := cl.CreateVDisk(master.CreateVDiskReq{Name: "bench", Size: size}); err != nil {
		t.Notes = append(t.Notes, "vdisk failed: "+err.Error())
		return t
	}
	vd, err := cl.Open("bench")
	if err != nil {
		t.Notes = append(t.Notes, "open failed: "+err.Error())
		return t
	}
	defer vd.Close()
	reg := c.Metrics()

	doc := recoveryBenchDoc{Bench: "recovery", Quick: cfg.Quick}
	window := func(phase string, seedOff uint64) recoveryPhase {
		w0 := time.Now()
		res := workload.Run(clock.Realtime, vd, workload.Spec{
			Pattern:    workload.RandWrite,
			BlockSize:  4 * util.KiB,
			QueueDepth: 8,
			Ops:        cfg.ops(600),
			Seed:       cfg.Seed + seedOff,
			MaxTime:    cfg.cellTime() / 2,
		})
		p := recoveryPhase{
			Phase:     phase,
			IOPS:      res.IOPS(),
			MBps:      res.MBps(),
			MeanLatMs: float64(res.Lat.Mean()) / float64(time.Millisecond),
			P99LatMs:  float64(res.Lat.Quantile(0.99)) / float64(time.Millisecond),
			Errors:    res.Errors,
			WallS:     time.Since(w0).Seconds(),
		}
		doc.Phases = append(doc.Phases, p)
		t.Rows = append(t.Rows, []string{
			phase, f0(p.IOPS), f1(p.MBps),
			us(time.Duration(p.MeanLatMs * float64(time.Millisecond))),
			us(time.Duration(p.P99LatMs * float64(time.Millisecond))),
			f0(float64(p.Errors)),
		})
		return p
	}

	window("healthy", 11)

	// Every SSD journal on machine 0 dies (write faults scoped to the
	// journal regions: replay reads of already-durable records still work).
	for _, jr := range c.Machines[0].JournalRegions {
		jr.Disk.FailWriteRange(nil, jr.Base, jr.Base+jr.Size)
	}
	jd := window("journals-dead", 12)
	if jd.Errors > 0 {
		t.Notes = append(t.Notes, "ACCEPTANCE FAIL: client saw errors during journal death")
	}

	// A whole backup HDD on machine 1 dies: its chunk server's store and
	// replay sink both fail, it reports, the master re-replicates.
	c.Machines[1].HDDFaults[0].Kill()
	window("hdd-dead", 13)

	// Wait for re-replication to finish: the parked replay reports the dead
	// sink and the master clones 64 MB chunks to a fresh HDD, which takes
	// several seconds at bench disk speeds. The dead disk may host several
	// chunks, so wait until the recovery counter has been stable for a while
	// — otherwise clone traffic pollutes the recovered window.
	deadline := time.Now().Add(45 * time.Second)
	recovered := reg.Counter(master.MetricChunkRecoveries)
	stableSince := time.Now()
	for last := recovered.Load(); time.Now().Before(deadline); {
		if n := recovered.Load(); n != last {
			last, stableSince = n, time.Now()
		}
		if recovered.Load() > 0 && time.Since(stableSince) > 3*time.Second {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	window("recovered", 14)

	doc.FaultsInjected = reg.Counter(simdisk.MetricFaultsInjected).Load()
	doc.JournalsDead = reg.Counter(journal.MetricJournalDead).Load()
	doc.BypassWrites = reg.Counter(journal.MetricBypassWrites).Load()
	doc.ReplayErrors = reg.Counter(journal.MetricReplayErrors).Load()
	doc.ChunkRecoveries = reg.Counter(master.MetricChunkRecoveries).Load()
	if rh := reg.LatencyHist(master.MetricRecoveryDuration); rh != nil {
		doc.RecoveryP50Ms = float64(rh.Quantile(0.5)) / float64(time.Millisecond)
		doc.RecoveryMaxMs = float64(rh.Quantile(1)) / float64(time.Millisecond)
	}
	t.Notes = append(t.Notes,
		"journals-dead kills every SSD journal region on m0: appends re-route, then bypass",
		"to WriteDirect on the backup HDDs (journal-bypass-writes = "+
			f0(float64(doc.BypassWrites))+", journals dead = "+f0(float64(doc.JournalsDead))+").",
		"hdd-dead kills a backup store+replay sink on m1: the chunk server reports and the",
		"master re-replicates (chunk-recoveries = "+f0(float64(doc.ChunkRecoveries))+
			", replay errors = "+f0(float64(doc.ReplayErrors))+
			", recovery p50 = "+f1(doc.RecoveryP50Ms)+"ms).")

	t.writeArtifact(cfg, recoveryBenchJSON, &doc)
	return t
}
