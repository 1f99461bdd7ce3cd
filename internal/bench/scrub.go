package bench

import (
	"errors"
	"fmt"
	"time"

	"ursa/internal/chunkserver"
	"ursa/internal/master"
	"ursa/internal/reliability"
	"ursa/internal/scrub"
	"ursa/internal/simdisk"
	"ursa/internal/util"
	"ursa/internal/workload"
)

type scrubBenchDoc struct {
	artifact
	Windows []phase `json:"windows"`
	// P99Ratio is scrub-on p99 / scrub-off p99 for the same workload.
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

// scrubConfig has the per-machine scrubbers sweep at a rate high enough
// that device time, not pacing, bounds detection latency. 1 MiB probes keep
// each probe's device time (~5 ms on the bench SSD) small against foreground
// op latency; a 4 MiB probe visibly fattens the foreground p99 whenever the
// idle gate opens.
func scrubConfig() *scrub.Config {
	return &scrub.Config{
		Interval:  250 * time.Millisecond,
		ReadSize:  1 * util.MiB,
		Rate:      128 * util.MiB,
		IdleGrace: 50 * time.Millisecond,
		Poll:      10 * time.Millisecond,
	}
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
		Title:  "Background scrubbing: foreground cost, time-to-detect, time-to-repair",
		Header: phaseHeader,
	}
	var doc scrubBenchDoc

	// One measurement window; identical spec either side so the only
	// variable is the scrubber.
	window := func(vd workload.Device, name string, seedOff uint64) phase {
		// p99 is the acceptance metric here, so the windows are longer than
		// FigRecovery's: 2000 samples put p99 at the 20th-worst op instead of
		// the 6th, which tames window-to-window jitter. Quick mode keeps 400
		// ops (not the usual /10) for the same reason.
		p := measure(vd, foreground(cfg.pick(2000, 400), cfg.Seed+seedOff, cfg.cellTime()))
		p.Phase = name
		doc.Windows = append(doc.Windows, p)
		t.Rows = append(t.Rows, p.row())
		return p
	}

	// The fault figures' cluster twice: scrubber off for the baseline, then
	// the same workload with the scrubber sweeping.
	opts := faultOptions()
	req := master.CreateVDiskReq{Size: int64(cfg.pick(6, 3)) * util.ChunkSize}
	base, err := open(opts, req)
	if err != nil {
		return t.failed("build (scrub off)", err)
	}
	off := window(base.vd, "scrub-off", 21)
	base.Close()

	opts.Scrub = scrubConfig()
	sut, err := open(opts, req)
	if err != nil {
		return t.failed("build (scrub on)", err)
	}
	defer sut.Close()
	cOn := sut.c
	on := window(sut.vd, "scrub-on", 21)
	doc.P99Ratio = ratio(on.P99LatMs, off.P99LatMs)
	// At quick-mode sample counts p99 is the ~4th-worst op: only the full
	// run gates the ratio.
	t.checkFull("scrub-on p99 / scrub-off p99", doc.P99Ratio, "<=", 1.10)

	// Bit-rot incident. Drain the journals first so the backups' stores
	// hold the real data the rot will hit, then give one chunk-hosting
	// backup HDD persistent whole-device corruption.
	reg := cOn.Metrics()
	sut.drain()

	var rot *simdisk.FaultInjector
	rotAddr := ""
	for _, m := range cOn.Machines {
		for k, fi := range m.HDDFaults {
			addr := fmt.Sprintf("%s/hdd%d", m.Name, k)
			if rot == nil && len(cOn.Server(addr).ScrubChunks()) > 0 {
				rot, rotAddr = fi, addr
			}
		}
	}
	if rot == nil {
		return t.failed("rot target", errors.New("no backup HDD hosts a chunk"))
	}

	found, recovered := reg.Counter(scrub.MetricCorruptionsFound), reg.Counter(master.MetricChunkRecoveries)
	baseFound, baseRec := found.Load(), recovered.Load()
	rot.CorruptRange(0, rot.Size(), true)

	// One budget for the whole incident: a wait that runs out leaves none
	// for the next.
	budget := 90 * time.Second
	detect, ok := waitQuiet(found.Load, baseFound, 0, budget)
	if ok {
		doc.DetectMs = ms(detect)
	}
	t.check("scrub detections of the rot", float64(found.Load()-baseFound), ">", 0)
	repair, ok := waitQuiet(recovered.Load, baseRec, 0, budget-detect)
	if ok {
		doc.RepairMs = ms(detect + repair)
	}
	t.check("view changes that repaired the rotted replica", float64(recovered.Load()-baseRec), ">", 0)
	// Let re-replication of every affected chunk settle before measuring.
	waitQuiet(recovered.Load, baseRec, 3*time.Second, budget-detect-repair)

	post := window(sut.vd, "post-repair", 22)
	t.check("client errors after repair, rot still armed", float64(post.Errors), "==", 0)

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
	groups, years := cfg.pick(4000, 1000), 10
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

	t.writeArtifact(cfg, "scrub", &doc)
	return t
}
