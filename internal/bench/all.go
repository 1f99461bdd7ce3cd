package bench

import (
	"fmt"
	"runtime"
	"time"
)

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
}

// Artifact is the repo-root file a full run of the figure rewrites, "" if
// none.
func (e Entry) Artifact() string {
	if e.Doc == nil {
		return ""
	}
	return artifactName(e.ID)
}

// Run regenerates the figure and holds it to the rule a synctest bubble
// enforces by hanging: a figure whose goroutines have not all exited 10 s
// after it returns misses its acceptance, the note carrying their stacks.
func (e Entry) Run(cfg Config) Table {
	goroutines := runtime.NumGoroutine()
	t := e.gen(cfg)
	t.ID = e.Table
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Notes = append(t.Notes, fmt.Sprintf("ACCEPTANCE FAIL: %d goroutines 10s after the figure returned, started with %d\n%s",
				runtime.NumGoroutine(), goroutines, buf[:runtime.Stack(buf, true)]))
			break
		}
	}
	return t
}

// All lists every regenerable table and figure in paper order.
func All() []Entry {
	return []Entry{
		{"1", "Fig 1", Fig01, nil},
		{"2", "Fig 2", Fig02, nil},
		{"t1", "Table 1", Tab01, nil},
		{"6a", "Fig 6a", Fig06a, nil},
		{"6b", "Fig 6b", Fig06b, nil},
		{"6c", "Fig 6c", Fig06c, nil},
		{"7", "Fig 7", Fig07, nil},
		{"8", "Fig 8", Fig08, nil},
		{"9", "Fig 9", Fig09, nil},
		{"10", "Fig 10", Fig10, nil},
		{"11", "Fig 11", Fig11, nil},
		{"12", "Fig 12", Fig12, nil},
		{"13a", "Fig 13a", Fig13a, nil},
		{"13b", "Fig 13b", Fig13b, nil},
		{"13c", "Fig 13c", Fig13c, nil},
		{"14", "Fig 14", Fig14, nil},
		{"15", "Fig 15", Fig15, nil},
		{"16", "Fig 16", Fig16, nil},
		{"journal", "Fig J", FigJournal, new(journalBenchDoc)},
		{"ceiling", "Fig C", FigCeiling, new(ceilingDoc)},
		{"ledger", "Fig L", FigAllocLedger, nil},
		{"hotchunk", "Fig H", FigHotchunk, new(hotchunkBenchDoc)},
		{"recovery", "Fig R", FigRecovery, new(recoveryBenchDoc)},
		{"scrub", "Fig S", FigScrub, new(scrubBenchDoc)},
		{"ec", "Fig EC", FigEC, new(ecBenchDoc)},
		{"failover", "Fig F", FigFailover, new(failoverBenchDoc)},
		{"coldtier", "Fig CT", FigColdtier, new(coldtierBenchDoc)},
		{"a1", "Abl 1", AblJournalMedia, nil},
		{"a2", "Abl 2", AblClientDirected, nil},
		{"a3", "Abl 3", AblIndexLevels, nil},
		{"a4", "Abl 4", AblBypassThreshold, nil},
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
