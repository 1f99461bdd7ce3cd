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
	Notes  []string
	// Extra holds companion tables rendered after the main one (e.g. the
	// per-stage latency decomposition under Fig 6b).
	Extra []Table
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
	for _, ex := range t.Extra {
		b.WriteByte('\n')
		b.WriteString(ex.String())
	}
	return b.String()
}

// Failed reports whether t or one of its companion tables carries an
// "ACCEPTANCE FAIL" note: the marker a figure appends when it misses its
// own bar, which fails the smoke tests and makes ursa-bench exit non-zero.
func (t Table) Failed() bool {
	for _, n := range t.Notes {
		if strings.Contains(n, "ACCEPTANCE FAIL") {
			return true
		}
	}
	for _, ex := range t.Extra {
		if ex.Failed() {
			return true
		}
	}
	return false
}

// missWallClock records a missed acceptance that compares wall time with
// model time, so that host load can trip it: the full run gates it, a -quick
// run — which shares the host with other packages' tests — only reports it.
func (t *Table) missWallClock(cfg Config, miss string) {
	if cfg.Quick {
		t.Notes = append(t.Notes, miss+" (wall-clock gate: reported by a -quick run, enforced by the full run)")
	} else {
		t.Notes = append(t.Notes, "ACCEPTANCE FAIL: "+miss)
	}
}

// ---------------------------------------------------------------------------
// System-under-test builders.
//
// TIME SCALE: the host kernel's timer granularity is ≈1 ms, so real
// device-scale sleeps (an 80 µs SSD read) are physically impossible to
// simulate in real time here. Every bench device model therefore runs in
// uniform ×10 "slow motion" relative to the paper's hardware, with all
// fixed latencies at ≥1 ms so sleeps land on timer ticks: SSD 4 KB read
// 1 ms (real ≈0.1 ms), HDD random ≈100 ms (real ≈10 ms), network one-way
// 1 ms (real ≈0.1 ms). Every system gets the same models, so all ratios,
// crossovers and scaling shapes are preserved; absolute IOPS and MB/s are
// ≈1/10 of the paper's and EXPERIMENTS.md compares them at that scale.

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
// ursa-bench id, and whether at the -quick run length (such a file must not be
// committed). A figure's artifact type embeds it.
type artifact struct {
	Bench string `json:"bench"`
	Quick bool   `json:"quick"`
}

func (a *artifact) header() *artifact { return a }

// artifactName is the file the figure with this id writes.
func artifactName(id string) string { return "BENCH_" + id + ".json" }

// writeArtifact emits doc as figure id's machine-readable artifact at
// artifactPath; a failure to write becomes a table note.
func (t *Table) writeArtifact(cfg Config, id string, doc interface{ header() *artifact }) {
	*doc.header() = artifact{Bench: id, Quick: cfg.Quick}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err == nil {
		err = os.WriteFile(artifactPath(cfg, artifactName(id)), append(buf, '\n'), 0o644)
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
		if err := os.MkdirAll(dir, 0o755); err == nil {
			return filepath.Join(dir, name)
		}
		return filepath.Join(os.TempDir(), name)
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

func f2(v float64) string       { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string       { return fmt.Sprintf("%.1f", v) }
func f0(v float64) string       { return fmt.Sprintf("%.0f", v) }
func us(d time.Duration) string { return usStr(usf(d)) }

// usStr prints a latency given in microseconds.
func usStr(v float64) string { return f0(v) + "us" }
