package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ursa/internal/bufpool"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // measured time, cut into windows
	trace    bool    // per-layer run: record spans, run the probes
	shrink   int     // divide working sets and probe op counts (smoke runs)
	outDir   string  // where the traced run writes its span file
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what a run reports.
type result struct {
	attempted, failed int64
	metrics           []metric
}

// worker is one closed-loop client's private state.
type worker struct {
	id     int
	gen    opGen
	n      int // ops generated so far
	buf    []byte
	want   []byte
	rd, wr []float64 // latencies in µs, all windows pooled
	spans  []opSpan
	failed int64
	last   time.Time
}

// harness drives one workload against one set-up cluster.
type harness struct {
	cfg config
	wl  *workload
	s   *sut
	// state[b] is block b's last write version <<1, low bit set while a
	// write of it is in flight. Each block has one writer, so a read that
	// sees the same even value before and after must return that version.
	state   []atomic.Uint32
	workers [workers]*worker
}

func newHarness(cfg config, wl *workload, s *sut) *harness {
	h := &harness{cfg: cfg, wl: wl, s: s, state: make([]atomic.Uint32, wl.blocks)}
	for w := range h.workers {
		h.workers[w] = &worker{
			id:   w,
			gen:  wl.gen(cfg.seed, w),
			buf:  make([]byte, wl.blockSize),
			want: make([]byte, wl.blockSize),
		}
	}
	return h
}

// window is one measured slice.
type window struct {
	ops     int
	elapsed time.Duration
	drain   time.Duration
	traced  bool
}

func (w window) iops() float64 { return float64(w.ops) / w.elapsed.Seconds() }

// runWindow drives the closed loop for dur, then quiesces: journals drained
// to the HDDs and a forced GC, so every window starts from the same state
// and its counter deltas hold all the work its ops caused.
func (h *harness) runWindow(wi int, dur time.Duration, traced bool) window {
	start := time.Now()
	deadline := start.Add(dur)
	ops := 0
	for _, wk := range h.workers {
		ops -= wk.n
	}
	var wg sync.WaitGroup
	for _, wk := range h.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				h.doOp(wk, wi, traced)
			}
		}()
	}
	wg.Wait()
	end := start
	for _, wk := range h.workers {
		ops += wk.n
		if wk.last.After(end) {
			end = wk.last
		}
	}
	win := window{ops: ops, elapsed: end.Sub(start), traced: traced}
	win.drain = h.s.drain()
	runtime.GC()
	return win
}

// doOp issues worker wk's next op and times the vdisk call alone.
func (h *harness) doOp(wk *worker, wi int, traced bool) {
	o := wk.gen(wk.n)
	seq := int64(wk.n*workers + wk.id)
	wk.n++
	off := h.wl.offset(o.block)
	st := &h.state[o.block]
	var t0, t1 time.Time
	if o.write {
		ver := st.Load()>>1 + 1
		fillPayload(wk.buf, h.cfg.seed, o.block, ver)
		st.Store(ver<<1 | 1)
		t0 = time.Now()
		err := h.s.vd.WriteAt(wk.buf, off)
		t1 = time.Now()
		st.Store(ver << 1)
		if err != nil {
			wk.failed++
		}
		wk.wr = append(wk.wr, float64(t1.Sub(t0))/1e3)
	} else {
		s0 := st.Load()
		t0 = time.Now()
		err := h.s.vd.ReadAt(wk.buf, off)
		t1 = time.Now()
		if err != nil {
			wk.failed++
		} else if s0&1 == 0 && st.Load() == s0 {
			fillPayload(wk.want, h.cfg.seed, o.block, s0>>1)
			if !bytes.Equal(wk.buf, wk.want) {
				wk.failed++
			}
		}
		wk.rd = append(wk.rd, float64(t1.Sub(t0))/1e3)
	}
	wk.last = t1
	if traced {
		wk.spans = append(wk.spans, opSpan{start: t0, end: t1, seq: seq, window: wi, write: o.write})
	}
}

// sweepers is how many readers share the read-back sweep; it runs after the
// windows, so it is not part of the measured load.
const sweepers = 8

// sweep reads back every block a write workload changed and compares it
// with the last acknowledged version. It returns reads issued and reads
// that failed or mismatched.
func (h *harness) sweep() (attempted, failed int64) {
	wl := h.wl
	var att, bad atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < sweepers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf, want := make([]byte, wl.blockSize), make([]byte, wl.blockSize)
			for b := i; b < wl.blocks; b += sweepers {
				ver := h.state[b].Load() >> 1
				if ver == 0 {
					continue // never written in the measured windows
				}
				att.Add(1)
				fillPayload(want, h.cfg.seed, b, ver)
				if err := h.s.vd.ReadAt(buf, wl.offset(b)); err != nil || !bytes.Equal(buf, want) {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return att.Load(), bad.Load()
}

// run executes one benchmark run.
func run(cfg config) (result, error) {
	wl := newWorkload(cfg.workload)
	if wl == nil {
		return result{}, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
	}
	if cfg.shrink > 1 {
		wl.shrink(cfg.shrink)
	}
	tr := newTracer(cfg.trace)
	opts := clusterOptions(tickSSD(), tickHDD(), tickNet)

	// The end-to-end run sets up three times and reports the median, so one
	// slow build does not decide setup_s; the traced run does not report it.
	setups := 3
	if cfg.trace {
		setups = 1
	}
	var s *sut
	var setupS []float64
	for i := 0; i < setups; i++ {
		if s != nil {
			s.close()
		}
		sp := tr.begin("setup", "setup", 0)
		t0 := time.Now()
		var err error
		if s, err = setUp(opts, wl, cfg.seed); err != nil {
			return result{}, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		tr.end(sp, nil)
	}
	defer func() { s.close() }()

	h := newHarness(cfg, wl, s)
	runtime.GC()
	dur := time.Duration(cfg.seconds / windows * float64(time.Second))
	snaps := []counters{s.snapshot()}
	var wins []window
	for wi := 0; wi < windows; wi++ {
		// The traced run records spans in every other window: the untraced
		// ones beside them give the tracing overhead.
		traced := cfg.trace && wi%2 == 0
		sp := tr.begin(fmt.Sprintf("window-%d", wi), "window", wi)
		win := h.runWindow(wi, dur, traced)
		snaps = append(snaps, s.snapshot())
		tr.end(sp, snaps[wi+1].since(snaps[wi]))
		wins = append(wins, win)
	}
	m := measurement{wl: wl, wins: wins, total: snaps[windows].since(snaps[0]), setupS: setupS}
	var res result
	for _, wk := range h.workers {
		res.attempted += int64(wk.n)
		res.failed += wk.failed
		m.rd, m.wr = append(m.rd, wk.rd...), append(m.wr, wk.wr...)
	}
	m.ops = float64(res.attempted)
	if wl.writePct > 0 {
		sp := tr.begin("sweep", "verify", 0)
		a, f := h.sweep()
		tr.end(sp, nil)
		res.attempted += a
		res.failed += f
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.liveHeapMB = float64(ms.HeapAlloc) / 1e6
	sort.Float64s(m.rd)
	sort.Float64s(m.wr)
	m.all = append(append([]float64(nil), m.rd...), m.wr...)
	sort.Float64s(m.all)

	if !cfg.trace {
		res.metrics = m.endToEnd()
		return res, nil
	}
	m.failFrac = float64(res.failed) / float64(res.attempted)
	res.metrics = m.perLayer()
	probes, err := runProbes(tr, max(cfg.shrink, 1))
	if err != nil {
		return result{}, err
	}
	res.metrics = append(res.metrics, probes...)
	for _, wk := range h.workers {
		tr.addOps(wk.id, wk.spans)
	}
	res.metrics = append(res.metrics, metric{"trace.spans", float64(tr.count()), "count"},
		metric{"trace.overhead_frac", m.traceOverhead(), "ratio"})
	path, err := tr.write(cfg.outDir, cfg.workload, cfg.seed)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintln(os.Stderr, "trace written to", path)
	return res, nil
}

// measurement is what the windows of one run produced.
type measurement struct {
	wl          *workload
	wins        []window
	total       counters  // counter deltas over all windows, quiesces included
	ops         float64   // ops the windows issued
	rd, wr, all []float64 // sorted latencies in µs
	setupS      []float64
	liveHeapMB  float64
	failFrac    float64 // failed or mis-verified ÷ attempted, sweep included
}

func (m *measurement) windowIOPS(keep func(window) bool) []float64 {
	var out []float64
	for _, w := range m.wins {
		if keep(w) {
			out = append(out, w.iops())
		}
	}
	return out
}

func (m *measurement) userBytes() float64 { return m.ops * float64(m.wl.blockSize) }

// endToEnd is the metric list of an untraced run.
func (m *measurement) endToEnd() []metric {
	return []metric{
		{"iops", median(m.windowIOPS(func(window) bool { return true })), "1/s"},
		{"lat_p50_us", percentile(m.all, 0.50), "us"},
		{"allocs_per_op", m.total["mallocs"] / m.ops, "1/op"},
		{"dev_io_amp", (m.total["ssd_bytes"] + m.total["hdd_bytes"]) / m.userBytes(), "ratio"},
		{"setup_s", median(m.setupS), "s"},
		{"live_heap_mb", m.liveHeapMB, "MB"},
	}
}

// traceOverhead is 1 − the traced windows' median iops ÷ the untraced
// windows' of the same run.
func (m *measurement) traceOverhead() float64 {
	traced := median(m.windowIOPS(func(w window) bool { return w.traced }))
	plain := median(m.windowIOPS(func(w window) bool { return !w.traced }))
	return 1 - ratio(traced, plain)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayer is the counter-derived part of a traced run's metric list.
func (m *measurement) perLayer() []metric {
	total, all, rd, wr := m.total, m.all, m.rd, m.wr
	perOp := func(name string) float64 { return total[name] / m.ops }
	userBytes := m.userBytes()
	writeBytes := float64(len(wr)) * float64(m.wl.blockSize)
	wallUs := total["wall_us"]
	var drained float64
	for _, w := range m.wins {
		drained += w.drain.Seconds()
	}
	return []metric{
		{"fail_frac", m.failFrac, "ratio"},
		{"client.lat_p95_us", percentile(all, 0.95), "us"},
		{"client.lat_tail_us", bandMean(all, 0.95, 0.99), "us"},
		{"client.lat_p99_us", percentile(all, 0.99), "us"},
		{"client.lat_max_us", percentile(all, 1), "us"},
		{"client.rd_p50_us", percentile(rd, 0.50), "us"},
		{"client.wr_p50_us", percentile(wr, 0.50), "us"},
		{"client.queue_us_per_op", perOp("stage_us:queue"), "us/op"},
		{"client.retries_per_kop", 1000 * perOp("client_retries"), "1/kop"},
		{"client.tiny_write_frac", ratio(total["client_tiny_writes"], float64(len(wr))), "ratio"},
		{"transport.rpcs_per_op", perOp("stage_n:net"), "1/op"},
		{"transport.net_us_per_op", perOp("stage_us:net"), "us/op"},
		{"chunkserver.apply_wait_us_per_op", perOp("stage_us:apply-wait"), "us/op"},
		{"chunkserver.commit_wait_us_per_op", perOp("stage_us:commit-wait"), "us/op"},
		{"chunkserver.repl_wait_us_per_op", perOp("stage_us:repl-wait"), "us/op"},
		{"chunkserver.replay_wait_us_per_op", perOp("stage_us:replay"), "us/op"},
		{"blockstore.primary_ssd_us_per_op", perOp("stage_us:primary-ssd"), "us/op"},
		{"journal.append_us_per_op", perOp("stage_us:backup-journal"), "us/op"},
		{"journal.jqueue_us_per_op", perOp("stage_us:backup-jqueue"), "us/op"},
		{"journal.jflush_us_per_op", perOp("stage_us:backup-jflush"), "us/op"},
		{"journal.records_per_flush", ratio(total["journal_batched_records"], total["journal_flushes"]), "count"},
		{"journal.replayed_bytes_per_wbyte", ratio(total["journal_replayed_bytes"], writeBytes), "ratio"},
		{"journal.merged_sector_frac", ratio(total["journal_merged_sectors"],
			total["journal_merged_sectors"]+total["journal_replayed_bytes"]/512), "ratio"},
		{"journal.drain_s", drained, "s"},
		{"simdisk.ssd_ops_per_op", perOp("ssd_ops"), "1/op"},
		{"simdisk.ssd_bytes_per_ubyte", total["ssd_bytes"] / userBytes, "ratio"},
		{"simdisk.ssd_busy_frac", total["ssd_busy_us"] / (wallUs * machines * ssdsPerMachine), "ratio"},
		{"simdisk.hdd_ops_per_op", perOp("hdd_ops"), "1/op"},
		{"simdisk.hdd_bytes_per_ubyte", total["hdd_bytes"] / userBytes, "ratio"},
		{"simdisk.hdd_seeks_per_op", perOp("hdd_seeks"), "1/op"},
		{"simdisk.hdd_busy_frac", total["hdd_busy_us"] / (wallUs * machines * hddsPerMachine), "ratio"},
		{"bufpool.leases_per_op", perOp("bufpool_leases"), "1/op"},
		{"bufpool.in_use_after", float64(bufpool.InUse()), "count"},
		{"runtime.cpu_us_per_op", perOp("cpu_us"), "us/op"},
		{"runtime.alloc_bytes_per_op", perOp("alloc_bytes"), "B/op"},
		{"runtime.gc_cycles", total["gc_cycles"], "count"},
		{"runtime.gc_pause_ms", total["gc_pause_ms"], "ms"},
		{"runtime.wakeups_per_op", perOp("wakeups"), "1/op"},
		{"runtime.mutex_wait_us_per_op", perOp("mutex_wait_us"), "us/op"},
		{"runtime.peak_rss_mb", peakRSSMB(), "MB"},
	}
}
