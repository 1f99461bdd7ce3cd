package bench

import (
	"fmt"
	"time"

	"ursa/internal/chunkserver"
	"ursa/internal/client"
	"ursa/internal/clock"
	"ursa/internal/core"
	"ursa/internal/master"
	"ursa/internal/reliability"
	"ursa/internal/scrub"
	"ursa/internal/simdisk"
	"ursa/internal/util"
	"ursa/internal/workload"
)

// scrubBenchJSON is FigScrub's machine-readable artifact.
const scrubBenchJSON = "BENCH_scrub.json"

// scrubWindow is one foreground-workload measurement window.
type scrubWindow struct {
	Phase     string  `json:"phase"`
	IOPS      float64 `json:"iops"`
	MBps      float64 `json:"mbps"`
	MeanLatMs float64 `json:"mean_lat_ms"`
	P99LatMs  float64 `json:"p99_lat_ms"`
	Errors    int64   `json:"errors"`
	WallS     float64 `json:"wall_s"`
}

type scrubBenchDoc struct {
	Bench   string        `json:"bench"`
	Quick   bool          `json:"quick"`
	Windows []scrubWindow `json:"windows"`
	// P99Ratio is scrub-on p99 / scrub-off p99 for the same workload; the
	// acceptance bar is ≤ 1.10.
	P99Ratio float64 `json:"p99_ratio"`
	// DetectMs and RepairMs measure the bit-rot incident on the scrub-on
	// cluster: arming persistent corruption → first scrub detection, and
	// arming → completed view-change re-replication.
	DetectMs float64 `json:"detect_ms"`
	RepairMs float64 `json:"repair_ms"`
	// Counters accumulated over the whole run of the scrub-on cluster.
	CorruptionsInjected int64 `json:"disk_corruptions_injected"`
	CorruptionsFound    int64 `json:"scrub_corruptions_found"`
	ChecksumMismatches  int64 `json:"chunk_checksum_mismatches"`
	BytesVerified       int64 `json:"scrub_bytes_verified"`
	ChunkRecoveries     int64 `json:"chunk_recoveries"`
	// Reliability is the Monte-Carlo data-loss probability vs scrub
	// interval (internal/reliability.ScrubSweep).
	ReliabilityYears int                         `json:"reliability_years"`
	Reliability      []reliability.ScrubSweepRow `json:"reliability"`
}

// windowOps sizes FigScrub's measurement windows.
func windowOps(cfg Config) int {
	if cfg.Quick {
		return 400
	}
	return 2000
}

// workloadVDisk bundles a client and its opened vdisk for teardown.
type workloadVDisk struct {
	cl *client.Client
	vd *client.VDisk
}

func (w *workloadVDisk) Close() {
	w.vd.Close()
	w.cl.Close()
}

// sscanHDDAddr parses a backup server address of the form "m<i>/hdd<k>";
// SSD addresses fail the scan.
func sscanHDDAddr(addr string, mi, ki *int) (int, error) {
	return fmt.Sscanf(addr, "m%d/hdd%d", mi, ki)
}

// scrubBenchCluster builds the figure's cluster: hybrid, one journal SSD
// and two backup HDDs per machine, optionally with the per-machine
// scrubber sweeping at a rate high enough that device time, not pacing,
// bounds detection latency.
func scrubBenchCluster(scrubOn bool) (*core.Cluster, error) {
	return core.New(core.Options{
		Machines:       4,
		SSDsPerMachine: 1,
		HDDsPerMachine: 2,
		Mode:           core.Hybrid,
		Clock:          clock.Realtime,
		SSDModel:       benchSSD(),
		HDDModel:       benchHDD(),
		HDDJournal:     false,
		NetLatency:     netLatency,
		NICRate:        50e6,
		ReplTimeout:    5 * time.Second,
		CallTimeout:    20 * time.Second,
		ScrubEnable:    scrubOn,
		// 1 MiB probes keep each probe's device time (~5 ms on the bench
		// SSD) small against foreground op latency; a 4 MiB probe visibly
		// fattens the foreground p99 whenever the idle gate opens.
		ScrubConfig: scrub.Config{
			Interval:  250 * time.Millisecond,
			ReadSize:  1 * util.MiB,
			Rate:      128 * util.MiB,
			IdleGrace: 50 * time.Millisecond,
			Poll:      10 * time.Millisecond,
		},
	})
}

// FigScrub answers the two questions that decide whether a background
// scrubber is deployable: what does it cost the foreground path, and what
// does it buy? Cost: the same 4 KiB random-write window runs on a
// scrubber-off and a scrubber-on cluster; the idle gate plus rate limit
// must keep the p99 ratio within 1.10. Benefit: a whole backup HDD is
// given persistent bit-rot on the scrub-on cluster and the time from
// arming to scrub detection, and to completed view-change re-replication,
// is measured; a post-repair window shows service is clean with the rot
// still armed. The Monte-Carlo data-loss sweep (internal/reliability) puts
// the measured detect/repair loop in fleet terms. Everything lands in
// BENCH_scrub.json.
func FigScrub(cfg Config) Table {
	t := Table{
		ID:     "Fig S",
		Title:  "Background scrubbing: foreground cost, time-to-detect, time-to-repair",
		Header: []string{"phase", "IOPS", "MB/s", "mean lat", "p99 lat", "errors"},
	}
	doc := scrubBenchDoc{Bench: "scrub", Quick: cfg.Quick}

	// One measurement window; identical spec either side so the only
	// variable is the scrubber.
	window := func(vd workload.Device, phase string, seedOff uint64) scrubWindow {
		w0 := time.Now()
		res := workload.Run(clock.Realtime, vd, workload.Spec{
			Pattern:    workload.RandWrite,
			BlockSize:  4 * util.KiB,
			QueueDepth: 8,
			// p99 is the acceptance metric here, so the windows are longer
			// than FigRecovery's: 2000 samples put p99 at the 20th-worst op
			// instead of the 6th, which tames window-to-window jitter. Quick
			// mode keeps 400 ops (not the usual /10) for the same reason.
			Ops:     windowOps(cfg),
			Seed:    cfg.Seed + seedOff,
			MaxTime: cfg.cellTime(),
		})
		w := scrubWindow{
			Phase:     phase,
			IOPS:      res.IOPS(),
			MBps:      res.MBps(),
			MeanLatMs: float64(res.Lat.Mean()) / float64(time.Millisecond),
			P99LatMs:  float64(res.Lat.Quantile(0.99)) / float64(time.Millisecond),
			Errors:    res.Errors,
			WallS:     time.Since(w0).Seconds(),
		}
		doc.Windows = append(doc.Windows, w)
		t.Rows = append(t.Rows, []string{
			phase, f0(w.IOPS), f1(w.MBps),
			us(time.Duration(w.MeanLatMs * float64(time.Millisecond))),
			us(time.Duration(w.P99LatMs * float64(time.Millisecond))),
			f0(float64(w.Errors)),
		})
		return w
	}

	nChunks := 6
	if cfg.Quick {
		nChunks = 3
	}
	size := int64(nChunks) * util.ChunkSize

	setup := func(scrubOn bool) (*core.Cluster, *workloadVDisk, error) {
		c, err := scrubBenchCluster(scrubOn)
		if err != nil {
			return nil, nil, err
		}
		cl := c.NewClient("bench-client")
		if _, err := cl.CreateVDisk(master.CreateVDiskReq{Name: "bench", Size: size}); err != nil {
			cl.Close()
			c.Close()
			return nil, nil, err
		}
		vd, err := cl.Open("bench")
		if err != nil {
			cl.Close()
			c.Close()
			return nil, nil, err
		}
		return c, &workloadVDisk{cl: cl, vd: vd}, nil
	}

	// Baseline: scrubber off.
	cOff, wOff, err := setup(false)
	if err != nil {
		t.Notes = append(t.Notes, "build (scrub off) failed: "+err.Error())
		return t
	}
	off := window(wOff.vd, "scrub-off", 21)
	wOff.Close()
	cOff.Close()

	// Same workload with the scrubber sweeping.
	cOn, wOn, err := setup(true)
	if err != nil {
		t.Notes = append(t.Notes, "build (scrub on) failed: "+err.Error())
		return t
	}
	defer cOn.Close()
	defer wOn.Close()
	on := window(wOn.vd, "scrub-on", 21)
	if off.P99LatMs > 0 {
		doc.P99Ratio = on.P99LatMs / off.P99LatMs
	}
	t.Notes = append(t.Notes,
		"scrub-on p99 / scrub-off p99 = "+f2(doc.P99Ratio)+" (acceptance: ≤ 1.10)")
	if doc.P99Ratio > 1.10 {
		if cfg.Quick {
			// At quick-mode sample counts p99 is the ~4th-worst op; the
			// ratio is informational, the full run is the gate.
			t.Notes = append(t.Notes, "quick mode: ratio above bar is jitter at this sample count; run full mode to gate")
		} else {
			t.Notes = append(t.Notes, "ACCEPTANCE FAIL: scrubber costs more than 10% of foreground p99")
		}
	}

	// Bit-rot incident. Drain the journals first so the backups' stores
	// hold the real data the rot will hit, then give one chunk-hosting
	// backup HDD persistent whole-device corruption.
	reg := cOn.Metrics()
	drainDeadline := time.Now().Add(30 * time.Second)
	for _, m := range cOn.Machines {
		for _, js := range m.JournalSets() {
			js.Drain()
		}
	}
	for time.Now().Before(drainDeadline) {
		pending := 0
		for _, m := range cOn.Machines {
			for _, js := range m.JournalSets() {
				pending += js.Pending()
			}
		}
		if pending == 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	var rot *simdisk.FaultInjector
	rotAddr := ""
	for _, m := range cOn.Machines {
		for _, s := range m.Servers {
			var mi, ki int
			if _, err := sscanHDDAddr(s.Addr(), &mi, &ki); err != nil {
				continue
			}
			if len(s.ScrubChunks()) > 0 {
				rot = cOn.Machines[mi].HDDFaults[ki]
				rotAddr = s.Addr()
				break
			}
		}
		if rot != nil {
			break
		}
	}
	if rot == nil {
		t.Notes = append(t.Notes, "ACCEPTANCE FAIL: no backup HDD hosts a chunk")
		return t
	}

	baseFound := reg.Counter(scrub.MetricCorruptionsFound).Load()
	baseRec := reg.Counter(master.MetricChunkRecoveries).Load()
	rot0 := time.Now()
	rot.CorruptRange(0, rot.Size(), true)

	detectDeadline := time.Now().Add(90 * time.Second)
	for reg.Counter(scrub.MetricCorruptionsFound).Load() == baseFound && time.Now().Before(detectDeadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if reg.Counter(scrub.MetricCorruptionsFound).Load() > baseFound {
		doc.DetectMs = time.Since(rot0).Seconds() * 1e3
	} else {
		t.Notes = append(t.Notes, "ACCEPTANCE FAIL: scrubber never detected the rot on "+rotAddr)
	}
	for reg.Counter(master.MetricChunkRecoveries).Load() == baseRec && time.Now().Before(detectDeadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if reg.Counter(master.MetricChunkRecoveries).Load() > baseRec {
		doc.RepairMs = time.Since(rot0).Seconds() * 1e3
	} else {
		t.Notes = append(t.Notes, "ACCEPTANCE FAIL: no view change repaired the rotted replica")
	}
	// Let re-replication of every affected chunk settle before measuring.
	recovered := reg.Counter(master.MetricChunkRecoveries)
	stableSince := time.Now()
	for last := recovered.Load(); time.Now().Before(detectDeadline); {
		if n := recovered.Load(); n != last {
			last, stableSince = n, time.Now()
		}
		if recovered.Load() > baseRec && time.Since(stableSince) > 3*time.Second {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	post := window(wOn.vd, "post-repair", 22)
	if post.Errors > 0 {
		t.Notes = append(t.Notes, "ACCEPTANCE FAIL: client saw errors after repair with rot still armed")
	}

	doc.CorruptionsInjected = reg.Counter(simdisk.MetricCorruptionsInjected).Load()
	doc.CorruptionsFound = reg.Counter(scrub.MetricCorruptionsFound).Load()
	doc.ChecksumMismatches = reg.Counter(chunkserver.MetricChecksumMismatches).Load()
	doc.BytesVerified = reg.Counter(scrub.MetricBytesVerified).Load()
	doc.ChunkRecoveries = reg.Counter(master.MetricChunkRecoveries).Load()
	t.Notes = append(t.Notes,
		"persistent whole-device rot armed on "+rotAddr+": detect = "+
			f0(doc.DetectMs)+"ms, repair (view change done) = "+f0(doc.RepairMs)+"ms,",
		"scrub detections = "+f0(float64(doc.CorruptionsFound))+
			", chunk recoveries = "+f0(float64(doc.ChunkRecoveries))+
			", bytes verified = "+f1(float64(doc.BytesVerified)/float64(util.MiB))+"MiB.")

	// Fleet-scale context: P(data loss) vs scrub interval, latent-error
	// Monte-Carlo at the default fleet rates.
	groups, years := 4000, 10
	if cfg.Quick {
		groups = 1000
	}
	doc.ReliabilityYears = years
	doc.Reliability = reliability.ScrubSweep(
		reliability.DefaultScrubParams(), []int{1, 7, 30, 0}, groups, years, cfg.Seed)
	rel := Table{
		ID:     "Fig S-rel",
		Title:  "Monte-Carlo data-loss probability vs scrub interval",
		Header: []string{"scrub-interval", "P(loss in 10y)"},
	}
	for _, row := range doc.Reliability {
		name := "never"
		if row.IntervalDays > 0 {
			name = f0(float64(row.IntervalDays)) + "d"
		}
		rel.Rows = append(rel.Rows, []string{name, f2(100*row.LossProb) + "%"})
	}
	t.Extra = append(t.Extra, rel)

	t.writeArtifact(cfg, scrubBenchJSON, &doc)
	return t
}
