package bench

import (
	"strings"
	"testing"
)

// quickCfg is the CI-speed configuration.
var quickCfg = Config{Quick: true, Seed: 1}

func checkTable(t *testing.T, tab Table, minRows int) {
	t.Helper()
	if len(tab.Rows) < minRows {
		t.Fatalf("%s: %d rows (< %d)\n%s", tab.ID, len(tab.Rows), minRows, tab)
	}
	for _, n := range tab.Notes {
		if strings.Contains(n, "failed") {
			t.Fatalf("%s: %s", tab.ID, n)
		}
	}
	if tab.Failed() {
		t.Fatalf("%s missed its acceptance:\n%s", tab.ID, tab)
	}
	if tab.String() == "" {
		t.Fatalf("%s: empty render", tab.ID)
	}
}

// TestTableFailed: the acceptance marker counts wherever it sits, including
// a companion table's notes — ursa-bench's exit status hangs on it.
func TestTableFailed(t *testing.T) {
	ok := Table{Notes: []string{"all good"}, Extra: []Table{{Notes: []string{"fine"}}}}
	if ok.Failed() {
		t.Fatal("clean table reported failed")
	}
	top := Table{Notes: []string{"ACCEPTANCE FAIL: x"}}
	nested := Table{Extra: []Table{{Extra: []Table{{Notes: []string{"n", "ACCEPTANCE FAIL: y"}}}}}}
	if !top.Failed() || !nested.Failed() {
		t.Fatalf("marker missed: top=%v nested=%v", top.Failed(), nested.Failed())
	}
}

func TestFig01Smoke(t *testing.T) { checkTable(t, Fig01(quickCfg), 5) }
func TestFig02Smoke(t *testing.T) { checkTable(t, Fig02(quickCfg), 36) }
func TestTab01Smoke(t *testing.T) { checkTable(t, Tab01(quickCfg), 6) }
func TestFig10Smoke(t *testing.T) { checkTable(t, Fig10(quickCfg), 2) }

func TestFig06aSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster bench")
	}
	checkTable(t, Fig06a(quickCfg), 4)
}

func TestFig11Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster bench")
	}
	checkTable(t, Fig11(quickCfg), 5)
}

func TestFig12Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster bench")
	}
	checkTable(t, Fig12(quickCfg), 1)
}

func TestFig15Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster bench")
	}
	checkTable(t, Fig15(quickCfg), 6)
}

func TestFigRecoverySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster bench")
	}
	checkTable(t, FigRecovery(quickCfg), 4)
}

func TestFigFailoverSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster bench")
	}
	checkTable(t, FigFailover(quickCfg), 8)
}
