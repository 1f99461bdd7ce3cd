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
	"ursa/internal/client"
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

// ops scales an op budget by the quick flag.
func (c Config) ops(full int) int {
	if c.Quick {
		n := full / 10
		if n < 64 {
			n = 64
		}
		return n
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
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
func (c Config) cellTime() time.Duration {
	if c.Quick {
		return 2 * time.Second
	}
	return 8 * time.Second
}

// ursaSUT wraps a cluster and one opened vdisk.
type ursaSUT struct {
	cluster *core.Cluster
	client  *client.Client
	vd      *client.VDisk
	metrics *metrics.Registry // the cluster-wide stage registry
}

func (s *ursaSUT) Close() {
	s.vd.Close()
	s.client.Close()
	s.cluster.Close()
}

// buildUrsa assembles an URSA cluster and a vdisk sized volumeSize.
func buildUrsa(mode core.Mode, machines int, volumeSize int64, stripeGroup int) (*ursaSUT, error) {
	c, err := core.New(core.Options{
		Machines:       machines,
		SSDsPerMachine: 2,
		HDDsPerMachine: 4,
		Mode:           mode,
		Clock:          clock.Realtime,
		SSDModel:       benchSSD(),
		HDDModel:       benchHDD(),
		HDDJournal:     true,
		NetLatency:     netLatency,
		ReplTimeout:    5 * time.Second,
		CallTimeout:    20 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	cl := c.NewClient("bench-client")
	req := master.CreateVDiskReq{Name: "bench", Size: volumeSize}
	if stripeGroup > 1 {
		req.StripeGroup = stripeGroup
		req.StripeUnit = 128 * util.KiB
	}
	if _, err := cl.CreateVDisk(req); err != nil {
		cl.Close()
		c.Close()
		return nil, err
	}
	vd, err := cl.Open("bench")
	if err != nil {
		cl.Close()
		c.Close()
		return nil, err
	}
	return &ursaSUT{cluster: c, client: cl, vd: vd, metrics: c.Metrics()}, nil
}

// cephSUT wraps a Ceph-like pool and volume.
type cephSUT struct {
	cluster *cephlike.Cluster
	vol     *cephlike.Volume
}

func (s *cephSUT) Close() {
	s.vol.Close()
	s.cluster.Close()
}

func buildCeph(machines int, volumeSize int64) (*cephSUT, error) {
	net := transport.NewSimNet(clock.Realtime, netLatency)
	c, err := cephlike.New(cephlike.Options{
		Machines:       machines,
		SSDsPerMachine: 2,
		Clock:          clock.Realtime,
		SSDModel:       benchSSD(),
		Net:            net,
	})
	if err != nil {
		return nil, err
	}
	vol, err := c.CreateVolume("bench", volumeSize, "bench-client")
	if err != nil {
		c.Close()
		return nil, err
	}
	return &cephSUT{cluster: c, vol: vol}, nil
}

// sheepSUT wraps a Sheepdog-like cluster and volume.
type sheepSUT struct {
	cluster *sheepdoglike.Cluster
	vol     *sheepdoglike.Volume
}

func (s *sheepSUT) Close() {
	s.vol.Close()
	s.cluster.Close()
}

func buildSheep(machines int, volumeSize int64) (*sheepSUT, error) {
	net := transport.NewSimNet(clock.Realtime, netLatency)
	c, err := sheepdoglike.New(sheepdoglike.Options{
		Machines:       machines,
		SSDsPerMachine: 2,
		Clock:          clock.Realtime,
		SSDModel:       benchSSD(),
		Net:            net,
	})
	if err != nil {
		return nil, err
	}
	vol, err := c.CreateVolume("bench", volumeSize, "bench-client")
	if err != nil {
		c.Close()
		return nil, err
	}
	return &sheepSUT{cluster: c, vol: vol}, nil
}

// system pairs a name with a device for comparison sweeps. metrics is the
// system's stage-latency registry; nil for baselines without op threading.
type system struct {
	name    string
	dev     workload.Device
	close   func()
	metrics *metrics.Registry
}

// buildComparison assembles the paper's §6.1 line-up: Sheepdog, Ceph,
// Ursa-SSD, Ursa-Hybrid, each with 3 server machines and one client.
func buildComparison(volumeSize int64) ([]system, error) {
	var out []system
	fail := func(err error) ([]system, error) {
		for _, s := range out {
			s.close()
		}
		return nil, err
	}
	sheep, err := buildSheep(3, volumeSize)
	if err != nil {
		return fail(err)
	}
	out = append(out, system{name: "Sheepdog", dev: sheep.vol, close: sheep.Close})
	ceph, err := buildCeph(3, volumeSize)
	if err != nil {
		return fail(err)
	}
	out = append(out, system{name: "Ceph", dev: ceph.vol, close: ceph.Close})
	ussd, err := buildUrsa(core.SSDOnly, 3, volumeSize, 1)
	if err != nil {
		return fail(err)
	}
	out = append(out, system{name: "Ursa-SSD", dev: ussd.vd, close: ussd.Close, metrics: ussd.metrics})
	uhyb, err := buildUrsa(core.Hybrid, 3, volumeSize, 1)
	if err != nil {
		return fail(err)
	}
	out = append(out, system{name: "Ursa-Hybrid", dev: uhyb.vd, close: uhyb.Close, metrics: uhyb.metrics})
	return out, nil
}

// writeArtifact emits doc as the figure's machine-readable BENCH_*.json
// artifact at artifactPath; a failure to write becomes a table note.
func (t *Table) writeArtifact(cfg Config, name string, doc any) {
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err == nil {
		err = os.WriteFile(artifactPath(cfg, name), append(buf, '\n'), 0o644)
	}
	if err != nil {
		t.Notes = append(t.Notes, "write "+name+": "+err.Error())
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

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func us(d time.Duration) string {
	return fmt.Sprintf("%.0fus", float64(d)/float64(time.Microsecond))
}
