// Package bench regenerates every table and figure of the paper's
// evaluation (§6). Each FigXX/TabXX function builds the systems it needs —
// URSA in hybrid/SSD-only mode, the Ceph-like and Sheepdog-like baselines,
// the cloud latency profiles — runs the paper's workload, and returns a
// text table with the same rows/series the paper plots. cmd/ursa-bench and
// the root bench_test.go both drive these functions.
//
// Absolute numbers depend on the calibrated device models, not the
// authors' testbed; EXPERIMENTS.md records the expected *shape* per figure
// (who wins, by what factor, where crossovers fall) next to measured runs.
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ursa/internal/baseline/cephlike"
	"ursa/internal/baseline/sheepdoglike"
	"ursa/internal/clock"
	"ursa/internal/core"
	"ursa/internal/master"
	"ursa/internal/metrics"
	"ursa/internal/simdisk"
	"ursa/internal/transport"
	"ursa/internal/util"
	"ursa/internal/workload"
)

// Config tunes bench runs.
type Config struct {
	// Quick shrinks op counts so the whole suite runs in CI time; full
	// runs give smoother numbers.
	Quick bool
	// Seed drives all randomness.
	Seed uint64
}

// ops scales an op budget by the quick flag: a tenth, but no fewer than 64.
func (c Config) ops(full int) int { return c.pick(full, max(full/10, 64)) }

// pick is a size a figure states outright for each run length.
func (c Config) pick(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// Table is one regenerated figure or table.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	// Notes are prose for the reader; no verdict is read from them.
	Notes []string
	// Checks are the figure's verdict: every acceptance it states and every
	// step it could not take, in order. A companion table states none.
	Checks []Check
	// Quick is the run length the table was made at (Entry.Run sets it): a
	// -quick run only reports a FullOnly check that misses.
	Quick bool
	// Extra holds companion tables rendered after the main one (e.g. the
	// per-stage latency decomposition under Fig 6b).
	Extra []Table
}

// Check is one acceptance of a figure: Value, measured, held to Bound by Op
// (">=", ">", "<=" or "=="). A step the figure could not take — a cluster
// build, a workload step, the artifact write — is a check that failed, Err
// saying why. A figure's BENCH_*.json stores its checks.
type Check struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Op    string  `json:"op,omitempty"`
	Bound float64 `json:"bound"`
	Pass  bool    `json:"pass"`
	// FullOnly: only a full-length run gates the check; a -quick run, which
	// shares the host with other work, reports it. It compares wall time with
	// model time, or reads a tail at a sample count where host noise decides.
	FullOnly bool   `json:"full_only,omitempty"`
	Err      string `json:"err,omitempty"`
}

// check states an acceptance: value op bound.
func (t *Table) check(name string, value float64, op string, bound float64) {
	pass, ok := map[string]bool{">=": value >= bound, ">": value > bound, "<=": value <= bound, "==": value == bound}[op]
	if !ok {
		panic("bench: check " + name + ": unknown op " + op)
	}
	t.Checks = append(t.Checks, Check{Name: name, Value: value, Op: op, Bound: bound, Pass: pass})
}

// checkFull states an acceptance that only a full-length run gates.
func (t *Table) checkFull(name string, value float64, op string, bound float64) {
	t.check(name, value, op, bound)
	t.Checks[len(t.Checks)-1].FullOnly = true
}

// failed records that a figure, or one row of it, could not be produced.
func (t *Table) failed(what string, err error) Table {
	t.Checks = append(t.Checks, Check{Name: what, Err: err.Error()})
	return *t
}

// gates reports whether c fails a run of the given length.
func (c Check) gates(quick bool) bool { return !c.Pass && !(quick && c.FullOnly) }

// Failed reports whether a check of t fails its run: the one verdict
// ursa-bench's exit status, the smoke tests and BenchmarkFigures read.
func (t Table) Failed() bool {
	for _, c := range t.Checks {
		if c.gates(t.Quick) {
			return true
		}
	}
	return false
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, c := range t.Checks {
		verdict := "FAIL"
		if c.Pass {
			verdict = "pass"
		} else if !c.gates(t.Quick) {
			verdict = "miss (only a full-length run gates it)"
		}
		if c.Err != "" {
			fmt.Fprintf(&b, "check: %s failed: %s: %s\n", c.Name, c.Err, verdict)
		} else {
			fmt.Fprintf(&b, "check: %s = %.4g, want %s %.4g: %s\n", c.Name, c.Value, c.Op, c.Bound, verdict)
		}
	}
	for _, ex := range t.Extra {
		b.WriteByte('\n')
		b.WriteString(ex.String())
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// System-under-test builders.
//
// TIME SCALE: on the real clock a sleep wakes ≈15–30 µs after its
// deadline (clock.Realtime parks on a timerfd), which is a large share of
// the paper's device-scale waits (an 80 µs SSD read). Every bench device
// model therefore runs in uniform ×10 "slow motion" relative to the
// paper's hardware, with all fixed latencies at ≥1 ms so that lateness is
// a few percent of each wait: SSD 4 KB read 1 ms (real ≈0.1 ms), HDD
// random ≈100 ms (real ≈10 ms), network one-way 1 ms (real ≈0.1 ms).
// ROADMAP item 1c runs them at 1× in bubbles instead. Every system gets
// the same models, so all ratios, crossovers and scaling shapes are
// preserved; absolute IOPS and MB/s are ≈1/10 of the paper's and
// EXPERIMENTS.md compares them at that scale.

// benchSSD is the Intel-750-class model in ×10 slow motion.
func benchSSD() simdisk.SSDModel {
	return simdisk.SSDModel{
		Capacity:       16 * util.GiB,
		Parallelism:    32,
		ReadLatency:    1 * time.Millisecond,
		WriteLatency:   2 * time.Millisecond,
		ReadBandwidth:  220e6,
		WriteBandwidth: 120e6,
	}
}

// benchHDD is the 7200 RPM model in ×10 slow motion: random 4 KB ≈ 10
// IOPS, sequential ≈ 15 MB/s — the same ~2-orders gap against benchSSD as
// real hardware has.
func benchHDD() simdisk.HDDModel {
	return simdisk.HDDModel{
		Capacity:   64 * util.GiB,
		SeekMax:    160 * time.Millisecond,
		SeekSettle: 10 * time.Millisecond,
		RPM:        720,
		Bandwidth:  15e6,
		TrackSkip:  512 * util.KiB,
	}
}

// netLatency is the one-way fabric delay for all systems (×10 slow
// motion of a ~100 µs datacenter hop).
const netLatency = 1 * time.Millisecond

// cellTime bounds each measurement cell's model time.
func (c Config) cellTime() time.Duration { return time.Duration(c.pick(8, 2)) * time.Second }

// system pairs a name with a device for comparison sweeps. metrics is the
// system's stage-latency registry; nil for baselines without op threading.
type system struct {
	name    string
	dev     workload.Device
	close   func()
	metrics *metrics.Registry
}

// eachSystem runs row against every system of the paper's §6.1 line-up —
// Sheepdog, Ceph, Ursa-SSD, Ursa-Hybrid, each with 3 server machines, one
// client and one microVolume volume — and appends what it returns to the
// table.
func (t *Table) eachSystem(row func(s system) []string) Table {
	systems, err := buildComparison(microVolume)
	if err != nil {
		return t.failed("build", err)
	}
	defer closeAll(systems)
	for _, s := range systems {
		t.Rows = append(t.Rows, row(s))
	}
	return *t
}

func closeAll(systems []system) {
	for _, s := range systems {
		s.close()
	}
}

// buildComparison assembles the line-up, every system with one volume of
// volumeSize. The baselines get the same SSD and network models as URSA.
func buildComparison(volumeSize int64) ([]system, error) {
	var out []system
	fail := func(err error) ([]system, error) {
		closeAll(out)
		return nil, err
	}

	sheep, err := sheepdoglike.New(sheepdoglike.Options{
		Machines: 3, SSDsPerMachine: 2, Clock: clock.Realtime, SSDModel: benchSSD(),
		Net: transport.NewSimNet(clock.Realtime, netLatency),
	})
	if err != nil {
		return fail(err)
	}
	svol, err := sheep.CreateVolume("bench", volumeSize, "bench-client")
	if err != nil {
		sheep.Close()
		return fail(err)
	}
	out = append(out, system{name: "Sheepdog", dev: svol, close: func() { svol.Close(); sheep.Close() }})

	ceph, err := cephlike.New(cephlike.Options{
		Machines: 3, SSDsPerMachine: 2, Clock: clock.Realtime, SSDModel: benchSSD(),
		Net: transport.NewSimNet(clock.Realtime, netLatency),
	})
	if err != nil {
		return fail(err)
	}
	cvol, err := ceph.CreateVolume("bench", volumeSize, "bench-client")
	if err != nil {
		ceph.Close()
		return fail(err)
	}
	out = append(out, system{name: "Ceph", dev: cvol, close: func() { cvol.Close(); ceph.Close() }})

	for _, u := range []struct {
		name string
		mode core.Mode
	}{{"Ursa-SSD", core.SSDOnly}, {"Ursa-Hybrid", core.Hybrid}} {
		opts := benchOptions()
		opts.Mode = u.mode
		s, err := open(opts, master.CreateVDiskReq{Size: volumeSize})
		if err != nil {
			return fail(err)
		}
		out = append(out, system{name: u.name, dev: s.vd, close: s.Close, metrics: s.c.Metrics()})
	}
	return out, nil
}

// artifact opens every BENCH_<id>.json: the figure that wrote it, by its
// ursa-bench id, whether at the -quick run length (such a file must not be
// committed) and the checks the run had stated when it wrote the file. A
// figure's artifact type embeds it.
type artifact struct {
	Bench  string  `json:"bench"`
	Quick  bool    `json:"quick"`
	Checks []Check `json:"checks"`
}

func (a *artifact) header() *artifact { return a }

// artifactName is the file the figure with this id writes.
func artifactName(id string) string { return "BENCH_" + id + ".json" }

// writeArtifact emits doc, with t's checks, as figure id's machine-readable
// artifact at artifactPath; a failure to write is a failed check.
func (t *Table) writeArtifact(cfg Config, id string, doc interface{ header() *artifact }) {
	*doc.header() = artifact{Bench: id, Quick: cfg.Quick, Checks: t.Checks}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // a check's op reads ">=", not "\u003e="
	enc.SetIndent("", "  ")
	err := enc.Encode(doc)
	if err == nil {
		err = os.WriteFile(artifactPath(cfg, artifactName(id)), buf.Bytes(), 0o644)
	}
	if err != nil {
		t.failed("write "+artifactName(id), err)
	}
}

// artifactPath anchors a BENCH_*.json artifact at the repository root (the
// nearest ancestor directory holding go.mod), so `go test ./internal/bench`
// and `go run ./cmd/ursa-bench` refresh the same canonical files instead of
// scattering copies per working directory. Quick (smoke) runs are CI
// probes with shrunk op counts: their numbers must never overwrite the
// canonical artifacts, so they land in a temp directory instead and only
// explicit full -fig runs refresh the repository copies.
func artifactPath(cfg Config, name string) string {
	if cfg.Quick {
		dir := filepath.Join(os.TempDir(), "ursa-bench")
		_ = os.MkdirAll(dir, 0o755) // if it fails, so does the write: a failed check
		return filepath.Join(dir, name)
	}
	dir, err := os.Getwd()
	if err != nil {
		return name
	}
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return filepath.Join(d, name)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return name // no module root above cwd: fall back to cwd
		}
		d = parent
	}
}

// ratio is a over b, 0 when b is.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func f2(v float64) string       { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string       { return fmt.Sprintf("%.1f", v) }
func f0(v float64) string       { return fmt.Sprintf("%.0f", v) }
func us(d time.Duration) string { return usStr(usf(d)) }

// usStr prints a latency given in microseconds.
func usStr(v float64) string { return f0(v) + "us" }
