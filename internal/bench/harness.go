package bench

import (
	"fmt"
	"sync"
	"time"

	"ursa/internal/client"
	"ursa/internal/clock"
	"ursa/internal/core"
	"ursa/internal/journal"
	"ursa/internal/master"
	"ursa/internal/util"
	"ursa/internal/workload"
)

// The harness: what every figure shares, stated once (DESIGN.md "Bench
// harness"). A figure says how its cluster differs from the recipe, what it
// runs in each window and what it prints. How a cluster is built and torn
// down, a window timed and converted, a queue depth driven below the vdisk
// layer and a counter waited on is here — and with it every read of the
// clock (measure, closedLoop, waitQuiet, timed): time.Now, virtual and exact
// when Entry.Run runs the figure in a synctest bubble, else the wall clock.

// benchOptions is the cluster of the evaluation: three machines of 2 SSDs and
// 4 HDDs, hybrid, the ×10 slow-motion device and network models, an overflow
// journal on every HDD, and protocol timeouts generous enough that a host
// stall shows as latency and never as a retry. A figure copies it and states
// only the fields in which its cluster differs.
func benchOptions() core.Options {
	return core.Options{
		Machines:       3,
		SSDsPerMachine: 2,
		HDDsPerMachine: 4,
		Mode:           core.Hybrid,
		Clock:          clock.Realtime,
		SSDModel:       benchSSD(),
		HDDModel:       benchHDD(),
		HDDJournal:     true,
		NetLatency:     netLatency,
		ReplTimeout:    5 * time.Second,
		CallTimeout:    20 * time.Second,
	}
}

// sut is a running cluster with a client on it and the vdisks a figure has
// opened; Close is the whole teardown.
type sut struct {
	c   *core.Cluster
	cl  *client.Client
	vd  *client.VDisk // the vdisk open was given
	vds []*client.VDisk
}

// open builds the cluster of opts and creates and opens req's vdisk (named
// "bench" unless req says otherwise) through a client of its own. On an
// error nothing is left running.
func open(opts core.Options, req master.CreateVDiskReq) (*sut, error) {
	c, err := core.New(opts)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	s := &sut{c: c, cl: c.NewClient("bench-client")}
	if req.Name == "" {
		req.Name = "bench"
	}
	if s.vd, err = s.add(s.cl, req); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// add creates one more vdisk through cl — the sut's own client, or another
// of its cluster's — and opens it.
func (s *sut) add(cl *client.Client, req master.CreateVDiskReq) (*client.VDisk, error) {
	if _, err := cl.CreateVDisk(req); err != nil {
		return nil, fmt.Errorf("create vdisk %s: %w", req.Name, err)
	}
	return s.attach(cl, req.Name)
}

// attach opens a vdisk that exists already (a clone) and keeps it for Close.
func (s *sut) attach(cl *client.Client, name string) (*client.VDisk, error) {
	vd, err := cl.Open(name)
	if err != nil {
		return nil, fmt.Errorf("open vdisk %s: %w", name, err)
	}
	s.vds = append(s.vds, vd)
	return vd, nil
}

// Close releases every vdisk's lease while its client can still reach the
// master, then stops the cluster, which closes the clients made on it.
func (s *sut) Close() {
	for _, vd := range s.vds {
		vd.Close()
	}
	s.c.Close()
}

// journals lists the cluster's backup journal sets.
func (s *sut) journals() []*journal.Set {
	var sets []*journal.Set
	for _, m := range s.c.Machines {
		sets = append(sets, m.JournalSets()...)
	}
	return sets
}

// drain replays every journal to its HDD, so that the backups' stores hold
// what was written and nothing is left to replay into the next window.
func (s *sut) drain() {
	for _, js := range s.journals() {
		js.Drain()
	}
}

// row opens the cluster and vdisk of one row of a figure that builds a
// cluster per row, appends what fn makes of it and closes it; one that cannot
// be opened leaves a "<label> failed" note in the row's place.
func (t *Table) row(label string, opts core.Options, req master.CreateVDiskReq, fn func(*sut) []string) {
	s, err := open(opts, req)
	if err != nil {
		t.failed(label, err)
		return
	}
	defer s.Close()
	t.Rows = append(t.Rows, fn(s))
}

// failed notes that a figure, or one row of it, could not be produced.
// "failed:" is the one spelling: the smoke tests fail a table on it.
func (t *Table) failed(what string, err error) Table {
	t.Notes = append(t.Notes, what+" failed: "+err.Error())
	return *t
}

// phase is one measured window of a workload against a device: the unit the
// fault timelines (recovery, scrub) store in their artifacts and every other
// figure reads its cells from.
type phase struct {
	Phase     string  `json:"phase"`
	IOPS      float64 `json:"iops"`
	MBps      float64 `json:"mbps"`
	MeanLatMs float64 `json:"mean_lat_ms"`
	P99LatMs  float64 `json:"p99_lat_ms"`
	Errors    int64   `json:"errors"`
	WallS     float64 `json:"wall_s"` // window wall time incl. straggling ops
	Ops       int64   `json:"-"`
}

// measure runs spec against dev and returns the window.
func measure(dev workload.Device, spec workload.Spec) phase {
	var res workload.Result
	wall := timed(func() { res = workload.Run(clock.Realtime, dev, spec) })
	return phase{
		IOPS:      res.IOPS(),
		MBps:      res.MBps(),
		MeanLatMs: ms(res.Lat.Mean()),
		P99LatMs:  ms(res.Lat.Quantile(0.99)),
		Errors:    res.Errors,
		WallS:     wall.Seconds(),
		Ops:       res.Ops,
	}
}

// row renders the window under the header phaseHeader.
func (p phase) row() []string {
	return []string{p.Phase, f0(p.IOPS), f1(p.MBps), msUs(p.MeanLatMs), msUs(p.P99LatMs), f0(float64(p.Errors))}
}

var phaseHeader = []string{"phase", "IOPS", "MB/s", "mean lat", "p99 lat", "errors"}

// closedLoop drives a queue depth where there is no workload.Device to hand
// to workload.Run — a bare journal set, a hand-wired replica group: qd
// workers each issue one 4 KiB op after another, at random sector-aligned
// offsets of a chunk, for loopWindow. worker runs once on each worker's
// goroutine, with its index and its generator (seeded as workload.Run seeds
// its workers), and returns the op; an op that returns false stops its
// worker, and the cell's rate shows the loss. Each worker has a histogram of
// its own, merged at the end, so the loop being measured shares nothing. The
// rate is ops over the window, not over the last straggler's return.
func closedLoop(cfg Config, qd int, worker func(w int, r *util.Rand) (op func(off int64) bool)) (perSec float64, lat *util.Hist) {
	clk := clock.Realtime
	window := loopWindow(cfg)
	deadline := clk.Now().Add(window)
	hists := make([]*util.Hist, qd)
	var wg sync.WaitGroup
	for w := range hists {
		hists[w] = util.NewHist()
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := util.NewRand(cfg.Seed + uint64(w)*7919)
			op := worker(w, r)
			for clk.Now().Before(deadline) {
				off := util.AlignDown(r.Int63n(util.ChunkSize-4096), util.SectorSize)
				t0 := clk.Now()
				if !op(off) {
					return
				}
				hists[w].Observe(clk.Now().Sub(t0))
			}
		}()
	}
	wg.Wait()
	lat = util.NewHist()
	for _, h := range hists {
		lat.Merge(h)
	}
	return float64(lat.Count()) / window.Seconds(), lat
}

// loopWindow is how long closedLoop drives a cell: half a cell time.
func loopWindow(cfg Config) time.Duration { return cfg.cellTime() / 2 }

// waitQuiet polls counter until it has risen above floor and then not moved
// for quiet (0: until it has risen), or until deadline has passed, and
// returns how long it waited and whether the counter got there. Background
// work a figure has provoked — a view change per chunk of a dead disk, say —
// reports through a counter and in no other way, and the next window must
// not start while it still runs.
func waitQuiet(counter func() int64, floor int64, quiet, deadline time.Duration) (waited time.Duration, ok bool) {
	start := time.Now()
	last, lastMove := counter(), time.Now()
	for {
		now := time.Now()
		if last > floor && now.Sub(lastMove) >= quiet {
			return now.Sub(start), true
		}
		if now.Sub(start) >= deadline {
			return now.Sub(start), false
		}
		time.Sleep(20 * time.Millisecond)
		if n := counter(); n != last {
			last, lastMove = n, time.Now()
		}
	}
}

// timed runs f and returns how long it took.
func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// ms and usf are a duration in the artifacts' units, as floats.
func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func usf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// msUs prints a latency an artifact stores in milliseconds the way us prints
// a duration.
func msUs(v float64) string { return usStr(v * 1e3) }
