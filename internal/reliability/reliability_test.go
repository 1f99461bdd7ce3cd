package reliability

import (
	"strings"
	"testing"
)

func TestSimulateReproducesTable1(t *testing.T) {
	res := Simulate(DefaultFleet(), 2000, 25, 42)
	if res.Total == 0 {
		t.Fatal("no failures simulated")
	}
	// Each class ratio must land within 1.5 percentage points of Table 1
	// at this fleet size.
	for name, want := range PaperRatios {
		got := res.Ratio(name)
		if got < want-1.5 || got > want+1.5 {
			t.Errorf("%s: %.1f%%, paper %.1f%%", name, got, want)
		}
	}
}

func TestHDDDominance(t *testing.T) {
	// §5.4: HDDs contribute nearly 70% of failures, an order of magnitude
	// above SSDs.
	res := Simulate(DefaultFleet(), 500, 10, 7)
	if res.Ratio("HDD") < 10*res.Ratio("SSD") {
		t.Errorf("HDD/SSD ratio = %.1f/%.1f, want ≥10x",
			res.Ratio("HDD"), res.Ratio("SSD"))
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a := Simulate(DefaultFleet(), 100, 2, 9)
	b := Simulate(DefaultFleet(), 100, 2, 9)
	if a.Total != b.Total {
		t.Error("simulation not deterministic")
	}
}

func TestTableRendering(t *testing.T) {
	res := Simulate(DefaultFleet(), 200, 5, 1)
	tab := res.Table()
	for _, name := range []string{"HDD", "SSD", "RAM", "Power", "CPU", "Other"} {
		if !strings.Contains(tab, name) {
			t.Errorf("table missing %s:\n%s", name, tab)
		}
	}
	// HDD row should come first (largest paper ratio).
	lines := strings.Split(tab, "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[1], "HDD") {
		t.Errorf("table ordering wrong:\n%s", tab)
	}
}

func TestRatioEmpty(t *testing.T) {
	var r Result
	if r.Ratio("HDD") != 0 {
		t.Error("empty result ratio not 0")
	}
}

// Exaggerated rates keep the Monte-Carlo cheap while leaving an
// unmistakable ordering: more frequent scrubs → lower loss probability.
func scrubTestParams() ScrubParams {
	return ScrubParams{
		DiskAFR:     0.05,
		LSERate:     1.0,
		RepairDays:  3,
		Replication: 3,
	}
}

func TestScrubFrequencyLowersLossProbability(t *testing.T) {
	const groups, years = 2000, 4
	rows := ScrubSweep(scrubTestParams(), []int{7, 60, 0}, groups, years, 1)
	weekly, rare, never := rows[0].LossProb, rows[1].LossProb, rows[2].LossProb
	if !(weekly < rare) {
		t.Errorf("weekly scrub loss %.4f not below 60d scrub loss %.4f", weekly, rare)
	}
	if !(rare < never) {
		t.Errorf("60d scrub loss %.4f not below never-scrub loss %.4f", rare, never)
	}
	if never == 0 {
		t.Error("never-scrub case lost nothing: rates too low to exercise the model")
	}
}

func TestSimulateLatentDeterministic(t *testing.T) {
	p := scrubTestParams()
	p.ScrubIntervalDays = 7
	a := SimulateLatent(p, 500, 2, 42)
	b := SimulateLatent(p, 500, 2, 42)
	if a != b {
		t.Fatalf("same seed gave %v then %v", a, b)
	}
}

func TestSimulateLatentNoHazardsNoLoss(t *testing.T) {
	p := ScrubParams{Replication: 3, RepairDays: 1, ScrubIntervalDays: 7}
	if got := SimulateLatent(p, 200, 3, 7); got != 0 {
		t.Fatalf("zero failure rates lost data: %v", got)
	}
}
