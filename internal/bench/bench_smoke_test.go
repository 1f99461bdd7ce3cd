package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ursa/internal/master"
	"ursa/internal/util"
)

// quickCfg is the CI-speed configuration.
var quickCfg = Config{Quick: true, Seed: 1}

// checkTable runs the registry's figure id at CI speed and holds its table
// to the smoke bar: enough rows and no check that fails the run — among them
// a step that failed and Entry.Run's, that every goroutine the figure started
// is joined.
func checkTable(t *testing.T, id string, minRows int) {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("no figure %q in the registry", id)
	}
	tab := e.Run(quickCfg)
	if len(tab.Rows) < minRows {
		t.Fatalf("%s: %d rows (< %d)\n%s", tab.ID, len(tab.Rows), minRows, tab)
	}
	if tab.Failed() {
		t.Fatalf("%s failed a check:\n%s", tab.ID, tab)
	}
}

// TestTableFailed: the verdict is the checks and only they — ursa-bench's
// exit status, the smoke tests and BenchmarkFigures hang on it. Each rule is
// held first to a table it must fail, then to one it must pass.
func TestTableFailed(t *testing.T) {
	stated := func(quick bool, fn func(*Table)) Table {
		tab := Table{Quick: quick}
		fn(&tab)
		return tab
	}
	for _, c := range []struct {
		rule       string
		fail, pass Table
	}{
		{">= holds at its bound",
			stated(false, func(t *Table) { t.check("x", 1.99, ">=", 2) }),
			stated(false, func(t *Table) { t.check("x", 2, ">=", 2) })},
		{"> does not hold at its bound",
			stated(false, func(t *Table) { t.check("x", 1, ">", 1) }),
			stated(false, func(t *Table) { t.check("x", 1.01, ">", 1) })},
		{"<= holds at its bound",
			stated(false, func(t *Table) { t.check("x", 1.11, "<=", 1.1) }),
			stated(false, func(t *Table) { t.check("x", 1.1, "<=", 1.1) })},
		{"== holds only at its bound",
			stated(false, func(t *Table) { t.check("x", 1, "==", 0) }),
			stated(false, func(t *Table) { t.check("x", 0, "==", 0) })},
		{"one miss among passes fails the table",
			stated(false, func(t *Table) { t.check("a", 1, "==", 1); t.check("b", 0, ">", 0); t.check("c", 1, "==", 1) }),
			stated(false, func(t *Table) { t.check("a", 1, "==", 1); t.check("c", 1, "==", 1) })},
		{"a step that failed fails the table",
			stated(false, func(t *Table) { t.failed("build", errors.New("no space")) }),
			stated(false, func(t *Table) { t.check("built", 1, "==", 1) })},
		{"a full-only miss fails a full run",
			stated(false, func(t *Table) { t.checkFull("x", 3, "<=", 2) }),
			stated(true, func(t *Table) { t.checkFull("x", 3, "<=", 2) })},
		{"a quick run gates every other miss",
			stated(true, func(t *Table) { t.checkFull("x", 1, "<=", 2); t.check("y", 3, "<=", 2) }),
			stated(true, func(t *Table) { t.checkFull("x", 1, "<=", 2); t.check("y", 1, "<=", 2) })},
		{"notes are prose, no verdict",
			stated(false, func(t *Table) { t.Notes = []string{"fine"}; t.check("x", 0, ">", 0) }),
			stated(false, func(t *Table) { t.Notes = []string{"ACCEPTANCE FAIL: x", "build failed: y"} })},
	} {
		if !c.fail.Failed() {
			t.Errorf("%s: a table it must fail passed:\n%s", c.rule, c.fail)
		}
		if c.pass.Failed() {
			t.Errorf("%s: a table it must pass failed:\n%s", c.rule, c.pass)
		}
	}
	if got := stated(true, func(t *Table) { t.checkFull("x", 3, "<=", 2) }).String(); !strings.Contains(got, "miss") || strings.Contains(got, "FAIL") {
		t.Errorf("a quick run's full-only miss renders as %q", got)
	}
}

func TestFig01Smoke(t *testing.T) { checkTable(t, "1", 5) }
func TestFig02Smoke(t *testing.T) { checkTable(t, "2", 36) }
func TestTab01Smoke(t *testing.T) { checkTable(t, "t1", 6) }
func TestFig10Smoke(t *testing.T) { checkTable(t, "10", 2) }

func TestFig06aSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster bench")
	}
	checkTable(t, "6a", 4)
}

func TestFig11Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster bench")
	}
	checkTable(t, "11", 5)
}

func TestFig12Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster bench")
	}
	checkTable(t, "12", 1)
}

func TestFig15Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster bench")
	}
	checkTable(t, "15", 6)
}

func TestFigRecoverySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster bench")
	}
	checkTable(t, "recovery", 4)
}

func TestFigFailoverSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster bench")
	}
	checkTable(t, "failover", 8)
}

// TestOpenFailureIsReported: a figure whose vdisk could not be made gets an
// error from open with the cluster already torn down, and the check
// Table.failed makes of it fails the table, so ursa-bench exits 1 on it.
func TestOpenFailureIsReported(t *testing.T) {
	sut, err := open(ceilingOptions(), master.CreateVDiskReq{Size: 200 * util.GiB})
	if err == nil {
		sut.Close()
		t.Fatal("a 200 GiB vdisk fit six 16 GiB SSDs")
	}
	tab := Table{Quick: true}
	tab.failed("build", err)
	if !tab.Failed() {
		t.Fatalf("a table whose build failed passes:\n%s", tab)
	}
}

// TestArtifactWriteFailureIsReported: an artifact that could not be written
// fails the table, as a build does: the old BENCH_*.json stays in place, and
// make bench-refresh must not go on as if it had been rewritten.
func TestArtifactWriteFailureIsReported(t *testing.T) {
	notADir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notADir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", notADir) // a quick run's artifact directory
	tab := Table{Quick: true}
	tab.check("x", 1, "==", 1)
	tab.writeArtifact(quickCfg, "journal", new(journalBenchDoc))
	if !tab.Failed() {
		t.Fatalf("a table whose artifact write failed passes:\n%s", tab)
	}
}

// TestRegistry holds the one list of figures to what its readers assume:
// entry and table IDs unique (two figures once shared "Fig C", and every
// printer keyed by table ID dropped one), a generator behind each entry,
// every committed BENCH_*.json claimed by exactly one entry, and the
// Makefile's refresh list equal to the entries that write an artifact.
func TestRegistry(t *testing.T) {
	ids, tables, artifacts := map[string]bool{}, map[string]bool{}, map[string]bool{}
	var refresh []string
	for _, e := range All() {
		if e.ID == "" || ids[e.ID] {
			t.Errorf("entry ID %q empty or listed twice", e.ID)
		}
		if e.Table == "" || tables[e.Table] {
			t.Errorf("table ID %q (entry %s) empty or claimed twice", e.Table, e.ID)
		}
		ids[e.ID], tables[e.Table] = true, true
		if e.gen == nil {
			t.Errorf("entry %s has no generator", e.ID)
		}
		if a := e.Artifact(); a != "" {
			artifacts[a] = true
			refresh = append(refresh, e.ID)
		}
	}
	committed, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range committed {
		if name := filepath.Base(path); !artifacts[name] {
			t.Errorf("%s is written by no figure in the registry", name)
		}
	}
	if len(committed) != len(artifacts) {
		t.Errorf("%d committed artifacts, %d figures that write one", len(committed), len(artifacts))
	}

	mk, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^ARTIFACT_FIGS *:?= *(.*)$`).FindSubmatch(mk)
	if m == nil {
		t.Fatal("Makefile has no ARTIFACT_FIGS variable")
	}
	if got, want := strings.Join(strings.Fields(string(m[1])), " "), strings.Join(refresh, " "); got != want {
		t.Errorf("Makefile ARTIFACT_FIGS = %q, the registry's artifact-writing figures are %q", got, want)
	}
}

// artifactFault is what keeps a committed artifact out of the tree: a -quick
// run, another figure's file, no checks, or a check its run failed.
func artifactFault(id string, h artifact) string {
	if h.Bench != id || h.Quick {
		return fmt.Sprintf("header {bench %q quick %v}, want a full run of %q", h.Bench, h.Quick, id)
	}
	if len(h.Checks) == 0 {
		return "no checks: the run stated no verdict"
	}
	for _, c := range h.Checks {
		if !c.Pass {
			return fmt.Sprintf("check %q failed: %+v", c.Name, c)
		}
	}
	return ""
}

// TestArtifactsMatchDocs pins the BENCH_*.json schemas: every committed
// artifact decodes, with no field unknown to it, into the type its figure
// writes — so a renamed or dropped JSON tag fails here in milliseconds and
// not at the next full refresh — and is a full-length run of that figure
// that stated its checks and passed them all.
func TestArtifactsMatchDocs(t *testing.T) {
	pass := []Check{{Name: "x", Value: 1, Op: "==", Bound: 1, Pass: true}}
	for _, bad := range []artifact{
		{Bench: "journal", Quick: true, Checks: pass},
		{Bench: "ec", Checks: pass},
		{Bench: "journal"},
		{Bench: "journal", Checks: append(pass, Check{Name: "build", Err: "no space"})},
		{Bench: "journal", Checks: []Check{{Name: "ratio", Value: 3, Op: "<=", Bound: 2, FullOnly: true}}},
	} {
		if artifactFault("journal", bad) == "" {
			t.Errorf("artifact %+v passes", bad)
		}
	}
	if f := artifactFault("journal", artifact{Bench: "journal", Checks: pass}); f != "" {
		t.Errorf("a passing artifact is refused: %s", f)
	}

	for _, e := range All() {
		if e.Doc == nil {
			continue
		}
		raw, err := os.ReadFile(filepath.Join("../..", e.Artifact()))
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(e.Doc); err != nil {
			t.Errorf("%s does not decode into %T: %v", e.Artifact(), e.Doc, err)
			continue
		}
		if f := artifactFault(e.ID, *e.Doc.(interface{ header() *artifact }).header()); f != "" {
			t.Errorf("%s: %s", e.Artifact(), f)
		}
	}
}
