package bench

import (
	"bytes"
	"encoding/json"
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
// to the smoke bar: enough rows, no step that failed, no missed acceptance —
// among them Entry.Run's, that every goroutine the figure started is joined.
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
// error from open with the cluster already torn down, and the note
// Table.failed makes of it is one checkTable refuses — the ablations used to
// append the bare error, and a figure that never ran passed its smoke test.
func TestOpenFailureIsReported(t *testing.T) {
	sut, err := open(ceilingOptions(), master.CreateVDiskReq{Size: 200 * util.GiB})
	if err == nil {
		sut.Close()
		t.Fatal("a 200 GiB vdisk fit six 16 GiB SSDs")
	}
	var tab Table
	tab.failed("build", err)
	if len(tab.Notes) != 1 || !strings.Contains(tab.Notes[0], "failed") {
		t.Fatalf("notes %q do not carry the marker checkTable looks for", tab.Notes)
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

// TestArtifactsMatchDocs pins the BENCH_*.json schemas: every committed
// artifact decodes, with no field unknown to it, into the type its figure
// writes — so a renamed or dropped JSON tag fails here in milliseconds and
// not at the next full refresh — and is a full-length run of that figure.
func TestArtifactsMatchDocs(t *testing.T) {
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
		if h := e.Doc.(interface{ header() *artifact }).header(); h.Bench != e.ID || h.Quick {
			t.Errorf("%s: header %+v, want a full run of %q", e.Artifact(), *h, e.ID)
		}
	}
}
