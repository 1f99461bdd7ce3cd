package bench

import "ursa/internal/clock"

// Entry is one regenerable table or figure. The registry is the only list of
// them: cmd/ursa-bench, the root BenchmarkFigures, the smoke tests and
// EXPERIMENTS.md's index all follow All().
type Entry struct {
	// ID is what `ursa-bench -fig` takes and what BenchmarkFigures names its
	// sub-benchmark.
	ID string
	// Table is the ID Run's table carries, as the paper or EXPERIMENTS.md
	// numbers it. It is stated here and nowhere else, side by side with the
	// others, so two figures cannot claim one.
	Table string
	gen   func(Config) Table
	// Doc is an empty value of the figure's artifact type; nil for a figure
	// that writes none.
	Doc any
	// cpuTimed: the figure times CPU work, which a bubble's clock never sees.
	cpuTimed bool
}

const modelTime, cpuTime = false, true // Entry.cpuTimed, as All spells it

// Artifact is the repo-root file a full run of the figure rewrites, "" if
// none.
func (e Entry) Artifact() string {
	if e.Doc == nil {
		return ""
	}
	return artifactName(e.ID)
}

// Run regenerates the figure, a model-time one in a bubble when the build has
// one (clock.Run), a CPU-timed one on the real clock (clock.Join). On the real
// clock a figure whose goroutines have not all exited has a failed check,
// which carries their stacks. In a bubble there is no check: a leaked
// goroutine that blocks durably makes synctest.Run panic, one that keeps
// sleeping or blocks otherwise hangs the run until the test's timeout dumps
// every stack.
func (e Entry) Run(cfg Config) Table {
	run := clock.Run
	if e.cpuTimed {
		run = clock.Join
	}
	var t Table
	if err := run(func() { t = e.gen(cfg) }); err != nil {
		t.failed("join", err)
	}
	t.ID, t.Quick = e.Table, cfg.Quick
	return t
}

// All lists every regenerable table and figure in paper order.
func All() []Entry {
	return []Entry{
		{"1", "Fig 1", Fig01, nil, modelTime},
		{"2", "Fig 2", Fig02, nil, modelTime},
		{"t1", "Table 1", Tab01, nil, modelTime},
		{"6a", "Fig 6a", Fig06a, nil, modelTime},
		{"6b", "Fig 6b", Fig06b, nil, modelTime},
		{"6c", "Fig 6c", Fig06c, nil, modelTime},
		{"7", "Fig 7", Fig07, nil, modelTime},
		{"8", "Fig 8", Fig08, nil, modelTime},
		{"9", "Fig 9", Fig09, nil, modelTime},
		{"10", "Fig 10", Fig10, nil, cpuTime},
		{"11", "Fig 11", Fig11, nil, modelTime},
		{"12", "Fig 12", Fig12, nil, modelTime},
		{"13a", "Fig 13a", Fig13a, nil, modelTime},
		{"13b", "Fig 13b", Fig13b, nil, modelTime},
		{"13c", "Fig 13c", Fig13c, nil, modelTime},
		{"14", "Fig 14", Fig14, nil, modelTime},
		{"15", "Fig 15", Fig15, nil, modelTime},
		{"16", "Fig 16", Fig16, nil, modelTime},
		{"journal", "Fig J", FigJournal, new(journalBenchDoc), modelTime},
		{"ceiling", "Fig C", FigCeiling, new(ceilingDoc), cpuTime},
		{"ledger", "Fig L", FigAllocLedger, nil, cpuTime},
		{"hotchunk", "Fig H", FigHotchunk, new(hotchunkBenchDoc), modelTime},
		{"recovery", "Fig R", FigRecovery, new(recoveryBenchDoc), modelTime},
		{"scrub", "Fig S", FigScrub, new(scrubBenchDoc), modelTime},
		{"ec", "Fig EC", FigEC, new(ecBenchDoc), modelTime},
		{"failover", "Fig F", FigFailover, new(failoverBenchDoc), modelTime},
		{"coldtier", "Fig CT", FigColdtier, new(coldtierBenchDoc), modelTime},
		{"a1", "Abl 1", AblJournalMedia, nil, modelTime},
		{"a2", "Abl 2", AblClientDirected, nil, modelTime},
		{"a3", "Abl 3", AblIndexLevels, nil, cpuTime},
		{"a4", "Abl 4", AblBypassThreshold, nil, modelTime},
	}
}

// Lookup finds an entry by ID.
func Lookup(id string) (Entry, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Entry{}, false
}
