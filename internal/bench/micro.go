package bench

import (
	"ursa/internal/metrics"
	"ursa/internal/opctx"
	"ursa/internal/util"
	"ursa/internal/workload"
)

// volumeSize for the micro-benchmarks: a few GB so random 4 KB I/O spreads
// over many chunks.
const microVolume = 4 * util.GiB

// Fig06a regenerates random IOPS (BS=4KB, QD=16) for the four systems and
// checks the paper's headline claim (§6.2): journals hide the HDD backups, so
// Ursa-Hybrid's 4 KiB random writes keep up with Ursa-SSD's, within a margin
// fixed from full-length runs (EXPERIMENTS.md "Fig 6a"). Backups that wrote
// their HDDs synchronously would miss it, and Fig 6b's, by an order of
// magnitude.
func Fig06a(cfg Config) Table {
	t, writes := microCompare(cfg, "Random IOPS (BS=4KB, QD=16)", workload.Spec{
		BlockSize: 4 * util.KiB, QueueDepth: 16, Ops: 200000,
		WorkingSet: microVolume / 2, MaxTime: cfg.cellTime(),
	}, func(p phase) string { return util.FormatCount(p.IOPS) }, false)
	// The two systems run one after the other, so a -quick run beside other
	// work (the smoke test's, in a parallel go test) can starve either one
	// alone: only the full run gates the ratio.
	t.checkFull("Ursa-Hybrid / Ursa-SSD write IOPS", ratio(writes["Ursa-Hybrid"].IOPS, writes["Ursa-SSD"].IOPS), ">=", 0.6)
	return t
}

// Fig06b regenerates random I/O latency (BS=4KB, QD=1), plus the
// per-stage decomposition of where that latency goes: the opctx
// breadcrumbs every layer records, aggregated by the cluster's metrics
// registry and rendered as companion tables per URSA system. It checks the
// headline claim on mean write latency (EXPERIMENTS.md "Fig 6b").
func Fig06b(cfg Config) Table {
	t, writes := microCompare(cfg, "Random I/O latency (BS=4KB, QD=1), mean", workload.Spec{
		BlockSize: 4 * util.KiB, QueueDepth: 1, Ops: 20000,
		WorkingSet: microVolume / 2, MaxTime: cfg.cellTime(),
	}, func(p phase) string { return msUs(p.MeanLatMs) }, true)
	t.check("Ursa-Hybrid / Ursa-SSD mean write latency", ratio(writes["Ursa-Hybrid"].MeanLatMs, writes["Ursa-SSD"].MeanLatMs), "<=", 1.25)
	return t
}

// Fig06c regenerates sequential throughput (BS=1MB, QD=1). For
// Ursa-Hybrid's writes this is the deliberate worst case: 1 MB exceeds Tj,
// so backup writes bypass journals and go directly to HDDs (§6.1).
func Fig06c(cfg Config) Table {
	t, _ := microCompare(cfg, "Sequential throughput (BS=1MB, QD=1), MB/s", workload.Spec{
		BlockSize: 1 * util.MiB, QueueDepth: 1, Ops: 5000,
		WorkingSet: microVolume / 2, MaxTime: cfg.cellTime(),
	}, func(p phase) string { return f1(p.MBps) }, false)
	return t
}

// microCompare runs the read and write variants of spec on all systems and
// returns the table and each system's write window, by name. With stages
// set, each system with a metrics registry gets its read- and write-run
// breadcrumbs snapshotted separately (the registry is reset between runs)
// and rendered as companion tables after the main one.
func microCompare(cfg Config, title string, spec workload.Spec,
	metric func(phase) string, stages bool) (Table, map[string]phase) {

	t := Table{Title: title, Header: []string{"system", "read", "write"}}
	writes := map[string]phase{}
	if stages {
		t.Notes = append(t.Notes,
			"stage tables decompose URSA request latency; baselines have no op threading")
	}
	return t.eachSystem(func(s system) []string {
		rs, ws := spec, spec
		rs.Pattern, rs.Seed = workload.RandRead, cfg.Seed+11
		ws.Pattern, ws.Seed = workload.RandWrite, cfg.Seed+12
		if spec.BlockSize >= util.MiB {
			rs.Pattern, ws.Pattern = workload.SeqRead, workload.SeqWrite
		}
		if s.metrics != nil {
			s.metrics.ResetStages() // drop open/creation noise
		}
		rres := measure(s.dev, rs)
		var readStages []metrics.StageStat
		if s.metrics != nil {
			readStages = s.metrics.StageSnapshot()
			s.metrics.ResetStages()
		}
		wres := measure(s.dev, ws)
		writes[s.name] = wres
		if stages && s.metrics != nil {
			t.Extra = append(t.Extra, stageTable(s.name, readStages, s.metrics.StageSnapshot()))
		}
		return []string{s.name, metric(rres), metric(wres)}
	}), writes
}

// stageTable renders one system's per-stage latency breakdown, stages in
// request-path order, read and write runs side by side.
func stageTable(name string, read, write []metrics.StageStat) Table {
	byStage := func(stats []metrics.StageStat) map[string]metrics.StageStat {
		m := make(map[string]metrics.StageStat, len(stats))
		for _, st := range stats {
			m[st.Stage] = st
		}
		return m
	}
	rm, wm := byStage(read), byStage(write)
	t := Table{
		ID:     name,
		Title:  "per-stage latency (mean over stage visits)",
		Header: []string{"stage", "read-n", "read-mean", "write-n", "write-mean"},
	}
	cell := func(st metrics.StageStat, ok bool) (string, string) {
		if !ok || st.Count == 0 {
			return "-", "-"
		}
		return util.FormatCount(float64(st.Count)), us(st.Mean)
	}
	for _, stage := range opctx.Stages() {
		r, rok := rm[stage.String()]
		w, wok := wm[stage.String()]
		if !rok && !wok {
			continue
		}
		rn, rmean := cell(r, rok)
		wn, wmean := cell(w, wok)
		t.Rows = append(t.Rows, []string{stage.String(), rn, rmean, wn, wmean})
	}
	return t
}

// Fig07 regenerates IOPS efficiency (IOPS per CPU core, §6.1): a 4 MB hot
// set inside one chunk, with per-run process CPU accounting. The paper
// splits client/server cores; all our components share one process, so the
// ratio is end-to-end IOPS per busy core — the same orders-of-magnitude
// comparison.
func Fig07(cfg Config) Table {
	t := Table{
		Title:  "IOPS efficiency (IOPS per CPU core, end-to-end)",
		Header: []string{"system", "read", "write"},
	}
	perCore := func(dev workload.Device, pattern workload.Pattern) float64 {
		cpu0 := cpuSeconds()
		p := measure(dev, workload.Spec{
			Pattern: pattern, BlockSize: 4 * util.KiB, QueueDepth: 16,
			Ops: 200000, WorkingSet: 4 * util.MiB,
			Seed: cfg.Seed + 21, MaxTime: cfg.cellTime(),
		})
		cpu := cpuSeconds() - cpu0
		if cpu <= 0 {
			return 0
		}
		return float64(p.Ops) / cpu
	}
	t.Notes = append(t.Notes,
		"process-wide CPU (client+servers); paper reports per-side cores")
	return t.eachSystem(func(s system) []string {
		r := perCore(s.dev, workload.RandRead)
		w := perCore(s.dev, workload.RandWrite)
		return []string{s.name, util.FormatCount(r), util.FormatCount(w)}
	})
}

// Fig08 regenerates sequential read IOPS vs queue depth.
func Fig08(cfg Config) Table {
	return seqVsQD(cfg, "Sequential read IOPS vs queue depth (BS=4KB)",
		workload.SeqRead)
}

// Fig09 regenerates sequential write IOPS vs queue depth.
func Fig09(cfg Config) Table {
	return seqVsQD(cfg, "Sequential write IOPS vs queue depth (BS=4KB)",
		workload.SeqWrite)
}

func seqVsQD(cfg Config, title string, pattern workload.Pattern) Table {
	qds := []int{1, 2, 4, 8, 16}
	t := Table{Title: title,
		Header: []string{"system", "qd1", "qd2", "qd4", "qd8", "qd16"}}
	return t.eachSystem(func(s system) []string {
		row := []string{s.name}
		for _, qd := range qds {
			p := measure(s.dev, workload.Spec{
				Pattern: pattern, BlockSize: 4 * util.KiB, QueueDepth: qd,
				Ops: 100000, WorkingSet: 512 * util.MiB,
				Seed: cfg.Seed + uint64(qd), MaxTime: cfg.cellTime() / 2,
			})
			row = append(row, util.FormatCount(p.IOPS))
		}
		return row
	})
}
