package bench

import (
	"encoding/json"
	"maps"
	"os"
	"runtime"
	"sync/atomic"
	"testing"

	"ursa/internal/blockstore"
	"ursa/internal/clock"
	"ursa/internal/journal"
	"ursa/internal/simdisk"
	"ursa/internal/util"
)

// perfBaseline mirrors testdata/perf_baseline.json: hard per-iteration
// allocation ceilings for the steady-state hot-path loops.
type perfBaseline struct {
	Loops map[string]struct {
		AllocsPerOp int64 `json:"allocs_per_op"`
		BytesPerOp  int64 `json:"bytes_per_op"`
	} `json:"loops"`
	// Counts are hard maxima of costs that are counts, so they hold on a
	// noisy host: per-record replay costs (replayCounts) and end-to-end
	// allocations per 4 KiB op (e2eCounts).
	Counts map[string]map[string]float64 `json:"counts"`
}

// TestPerfSmoke is the allocation regression gate behind `make perf-smoke`:
// it runs the ceiling figure's steady-state micro-benchmarks (blockstore
// read+verify, write+stamp, pooled proto decode) and fails if any loop
// allocates more than the checked-in baseline permits. The baseline pins
// the hot path at 0 allocs/op — any regression that reintroduces a
// per-I/O allocation fails here before it reaches a full bench run. The
// micros call the layers directly; the counts below also gate what a whole
// read or write allocates on its way through the chunkserver handlers.
func TestPerfSmoke(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime distorts allocation accounting; gate runs race-free via make perf-smoke")
	}
	raw, err := os.ReadFile("testdata/perf_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base perfBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}

	micros := ceilingMicros()
	if len(micros) == 0 {
		t.Fatal("ceilingMicros returned nothing")
	}
	seen := make(map[string]bool)
	for _, m := range micros {
		seen[m.Name] = true
		want, ok := base.Loops[m.Name]
		if !ok {
			t.Errorf("%s: no baseline entry — add one to testdata/perf_baseline.json", m.Name)
			continue
		}
		t.Logf("%s: %.0f ns/op, %d allocs/op, %d B/op (ceiling %d allocs, %d B)",
			m.Name, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp,
			want.AllocsPerOp, want.BytesPerOp)
		if m.AllocsPerOp > want.AllocsPerOp {
			t.Errorf("%s: %d allocs/op exceeds baseline %d",
				m.Name, m.AllocsPerOp, want.AllocsPerOp)
		}
		if m.BytesPerOp > want.BytesPerOp {
			t.Errorf("%s: %d B/op exceeds baseline %d",
				m.Name, m.BytesPerOp, want.BytesPerOp)
		}
	}
	for name := range base.Loops {
		if !seen[name] {
			t.Errorf("baseline loop %s no longer measured", name)
		}
	}

	got := e2eCounts(t)
	// 1024 records stay inside the resident budget (8 MiB); 4096 are four
	// full replay windows and more than twice the budget.
	got["journal-replay-resident"] = replayCounts(t, 1024, false)
	got["journal-replay-overflow"] = replayCounts(t, 4096, true)
	if got["footprint"], err = footprintCounts(); err != nil {
		t.Fatal(err)
	}
	planes, note, err := controlPlaneCounts()
	if err != nil {
		t.Fatal(err)
	}
	maps.Copy(got, planes)
	t.Logf("control-plane: %s", note)
	for name, want := range base.Counts {
		for metric, ceiling := range want {
			v, ok := got[name][metric]
			if !ok {
				t.Errorf("baseline count %s.%s no longer measured", name, metric)
				continue
			}
			t.Logf("%s: %s = %.3f (ceiling %g)", name, metric, v, ceiling)
			if v > ceiling {
				t.Errorf("%s: %s = %.3f exceeds baseline %g", name, metric, v, ceiling)
			}
		}
	}
	for name, m := range got {
		for metric := range m {
			if _, ok := base.Counts[name][metric]; !ok {
				t.Errorf("%s.%s: no baseline entry — add one to testdata/perf_baseline.json", name, metric)
			}
		}
	}
}

// e2eCounts measures heap allocations per end-to-end operation at QD 1 on
// the ceiling figure's cluster (in-process, three-replica hybrid, zero-cost
// devices and network): everything between vd.ReadAt/WriteAt and its return,
// handlers and background replay included. The micros above bypass the
// chunkserver handlers; these are the counts that catch a per-request
// allocation added there. e2e-4k is a 4 KiB read and a 4 KiB client-directed
// write; e2e-16k-primary and e2e-256k-striped are the two write paths that
// one bypasses — the primary's replicate-while-writing fan-out, and the
// stripe fork-join over journal-bypass writes. Bytes per 4 KiB write catch
// what a count hides: a 64 KiB simulated-disk page made afresh each time the
// trimmed journal wraps is 0.14 allocations a write and 9 KB.
func e2eCounts(t *testing.T) map[string]map[string]float64 {
	cfg := Config{Quick: true, Seed: 1}
	run := func(sh ceilingShape) ceilingCell {
		c := runCeilingCell(cfg, sh)
		if c.IOPS <= 0 {
			t.Fatalf("e2e cell %v did not run: %+v", sh, c)
		}
		return c
	}
	rd, wr := run(ceilingShape{qd: 1}), run(ceilingShape{write: true, qd: 1})
	return map[string]map[string]float64{
		"e2e-4k": {
			"read_allocs_per_op":  rd.AllocsPerOp,
			"write_allocs_per_op": wr.AllocsPerOp,
			"write_bytes_per_op":  wr.BytesPerOp,
		},
		"e2e-16k-primary":  {"write_allocs_per_op": run(e2ePrimary16k).AllocsPerOp},
		"e2e-256k-striped": {"write_allocs_per_op": run(e2eStriped256k).AllocsPerOp},
	}
}

// heldDisk is a backup disk whose queue can be made to look busy, which
// holds the journal replayer off (its idle gate) until a Drain forces it.
type heldDisk struct {
	simdisk.Disk
	busy atomic.Int32
}

func (d *heldDisk) QueueDepth() int { return d.Disk.QueueDepth() + int(d.busy.Load()) }

// replayCounts measures what replaying one journaled 4 KiB record costs in
// steady state, on zero-cost devices: journal-device reads and heap
// allocations per replayed record. Each cycle journals n scattered records
// with the replayer held off, then drains them; the first cycle warms the
// replayer's scratch and the buffer pool, the second is measured over the
// drain alone, down to the backup HDD model's pooled requests. overflow
// says whether n is meant to outgrow the set's resident image, so that part
// of the backlog is read back from the journal device; a backlog inside it
// must drain without one device read.
func replayCounts(t *testing.T, n int, overflow bool) map[string]float64 {
	clk := clock.Realtime
	ssd := simdisk.NewSSD(ceilingSSD(), clk)
	defer ssd.Close()
	backup := simdisk.NewHDD(ceilingHDD(), clk)
	defer backup.Close()
	sinkDisk := &heldDisk{Disk: backup}
	store := blockstore.New(sinkDisk, util.AlignDown(backup.Size()/2, util.ChunkSize))
	set := journal.NewSet(clk, store, journal.DefaultConfig())
	set.AddSSDJournal("jssd", ssd, 0, 256*util.MiB)
	set.Start()
	defer set.Close()
	id := blockstore.MakeChunkID(9, 0)
	if err := store.Create(id); err != nil {
		t.Fatal(err)
	}

	data := make([]byte, 4*util.KiB)
	var reads, mallocs float64
	for cycle := 0; cycle < 2; cycle++ {
		sinkDisk.busy.Store(1)
		for i := 0; i < n; i++ {
			off := int64(i*2731%n) * 16 * util.KiB // distinct, scattered, never adjacent
			if err := set.Append(nil, id, off, data, uint64(cycle*n+i+1)); err != nil {
				t.Fatal(err)
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r0 := ssd.Stats().Reads
		sinkDisk.busy.Store(0)
		set.Drain()
		runtime.ReadMemStats(&m1)
		reads = float64(ssd.Stats().Reads - r0)
		mallocs = float64(m1.Mallocs - m0.Mallocs)
	}
	st := set.Stats()
	if st.ReplayedRecords != int64(2*n) {
		t.Fatalf("replayed %d records, want %d", st.ReplayedRecords, 2*n)
	}
	if (st.ReplayedFromDevice > 0) != overflow || st.ReplayedFromMemory == 0 {
		t.Fatalf("%d records a cycle: %d bytes replayed from memory, %d from the device (overflow expected: %v)",
			n, st.ReplayedFromMemory, st.ReplayedFromDevice, overflow)
	}
	return map[string]float64{
		"journal_reads_per_record": reads / float64(n),
		"allocs_per_record":        mallocs / float64(n),
	}
}
