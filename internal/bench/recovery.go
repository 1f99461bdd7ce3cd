package bench

import (
	"time"

	"ursa/internal/core"
	"ursa/internal/journal"
	"ursa/internal/master"
	"ursa/internal/simdisk"
	"ursa/internal/util"
	"ursa/internal/workload"
)

type recoveryBenchDoc struct {
	artifact
	Phases []phase `json:"phases"`
	// Fault and recovery counters accumulated over the whole timeline.
	FaultsInjected  int64   `json:"disk_faults_injected"`
	JournalsDead    int64   `json:"journals_dead"`
	BypassWrites    int64   `json:"journal_bypass_writes"`
	ReplayErrors    int64   `json:"journal_replay_errors"`
	ChunkRecoveries int64   `json:"chunk_recoveries"`
	RecoveryP50Ms   float64 `json:"recovery_p50_ms"`
	RecoveryMaxMs   float64 `json:"recovery_max_ms"`
}

// faultOptions is the cluster of the fault figures: four machines of one SSD
// — one journal SSD per machine, so its death is total — and two HDDs, no
// overflow journal (a dead SSD journal leaves the bare ladder), and NICs at
// the paper's ≈500 MB/s bound (×10 slow motion), which recovery traffic fills.
func faultOptions() core.Options {
	opts := benchOptions()
	opts.Machines, opts.SSDsPerMachine, opts.HDDsPerMachine = 4, 1, 2
	opts.HDDJournal = false
	opts.NICRate = 50e6
	return opts
}

// foreground is the client load the fault figures judge service by: 4 KiB
// random writes at QD 8, ops of them or maxTime's worth.
func foreground(ops int, seed uint64, maxTime time.Duration) workload.Spec {
	return workload.Spec{
		Pattern: workload.RandWrite, BlockSize: 4 * util.KiB, QueueDepth: 8,
		Ops: ops, Seed: seed, MaxTime: maxTime,
	}
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
		Title:  "Service under faults: journal death, disk death, view-change recovery",
		Header: phaseHeader,
	}
	sut, err := open(faultOptions(), master.CreateVDiskReq{Size: int64(cfg.pick(8, 4)) * util.ChunkSize})
	if err != nil {
		return t.failed("build", err)
	}
	defer sut.Close()
	c, reg := sut.c, sut.c.Metrics()

	var doc recoveryBenchDoc
	window := func(name string, seedOff uint64) phase {
		p := measure(sut.vd, foreground(cfg.ops(600), cfg.Seed+seedOff, cfg.cellTime()/2))
		p.Phase = name
		doc.Phases = append(doc.Phases, p)
		t.Rows = append(t.Rows, p.row())
		return p
	}

	window("healthy", 11)

	// Every SSD journal on machine 0 dies (write faults scoped to the
	// journal regions: replay reads of already-durable records still work).
	for _, jr := range c.Machines[0].JournalRegions {
		jr.Disk.FailWriteRange(nil, jr.Base, jr.Base+jr.Size)
	}
	jd := window("journals-dead", 12)
	t.check("client errors during journal death", float64(jd.Errors), "==", 0)

	// A whole backup HDD on machine 1 dies: its chunk server's store and
	// replay sink both fail, it reports, the master re-replicates.
	c.Machines[1].HDDFaults[0].Kill()
	window("hdd-dead", 13)

	// Wait for re-replication to finish: the parked replay reports the dead
	// sink and the master clones 64 MB chunks to a fresh HDD, which takes
	// several seconds at bench disk speeds. The dead disk may host several
	// chunks, so wait until the recovery counter has been stable for a while
	// — otherwise clone traffic pollutes the recovered window.
	waitQuiet(reg.Counter(master.MetricChunkRecoveries).Load, 0, 3*time.Second, 45*time.Second)
	window("recovered", 14)

	doc.FaultsInjected = reg.Counter(simdisk.MetricFaultsInjected).Load()
	doc.JournalsDead = reg.Counter(journal.MetricJournalDead).Load()
	doc.BypassWrites = reg.Counter(journal.MetricBypassWrites).Load()
	doc.ReplayErrors = reg.Counter(journal.MetricReplayErrors).Load()
	doc.ChunkRecoveries = reg.Counter(master.MetricChunkRecoveries).Load()
	if rh := reg.LatencyHist(master.MetricRecoveryDuration); rh != nil {
		doc.RecoveryP50Ms = ms(rh.Quantile(0.5))
		doc.RecoveryMaxMs = ms(rh.Quantile(1))
	}
	t.Notes = append(t.Notes,
		"journals-dead kills every SSD journal region on m0: appends re-route, then bypass",
		"to WriteDirect on the backup HDDs (journal-bypass-writes = "+
			f0(float64(doc.BypassWrites))+", journals dead = "+f0(float64(doc.JournalsDead))+").",
		"hdd-dead kills a backup store+replay sink on m1: the chunk server reports and the",
		"master re-replicates (chunk-recoveries = "+f0(float64(doc.ChunkRecoveries))+
			", replay errors = "+f0(float64(doc.ReplayErrors))+
			", recovery p50 = "+f1(doc.RecoveryP50Ms)+"ms).")

	t.writeArtifact(cfg, "recovery", &doc)
	return t
}
