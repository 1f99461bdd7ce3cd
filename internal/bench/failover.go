package bench

import (
	"errors"
	"sync"
	"time"

	"ursa/internal/master"
	"ursa/internal/proto"
	"ursa/internal/transport"
	"ursa/internal/util"
)

type failoverBenchDoc struct {
	artifact
	// The metadata blackout: wall time from the primary master's death to
	// the first metadata operation a surviving master serves, each asked
	// directly — the promotion itself.
	BlackoutMs   float64 `json:"blackout_ms"`
	PrimacyTTLMs float64 `json:"primacy_ttl_ms"`
	// Ratio = blackout / primacy TTL, checked against 2.0: the blackout is
	// the lease the standby waits out plus its probe round.
	Ratio float64 `json:"ratio"`
	// The blackout as a client sees it: from the kill to its first
	// successful OpenMeta, which hunts across the endpoints and backs off
	// between sweeps, so it ends with the first sweep after the promotion.
	ClientBlackoutMs float64 `json:"client_blackout_ms"`
	// Metadata latency against the healthy primary, for contrast.
	HealthyMetaMs float64 `json:"healthy_meta_ms"`
	// Data-path traffic riding through the blackout. Errors must be 0:
	// established vdisks speak directly to their chunkservers and never
	// notice the metadata service failing over.
	DataOps      int64   `json:"data_ops"`
	DataErrors   int64   `json:"data_errors"`
	DataIOPS     float64 `json:"data_iops"`
	Promotions   int64   `json:"master_promotions"`
	PromotedAddr string  `json:"promoted_addr"`
	Epoch        uint64  `json:"promoted_epoch"`
}

// FigFailover measures the metadata blackout window of a fenced master
// failover: a three-master cluster runs a data workload while the primary
// master is killed mid-run. A prober asks each surviving master for the
// vdisk's metadata, directly and over and over, and times the gap from the
// kill to the first answer — the promotion; beside it, the client's own
// first successful metadata call. The data stream must ride through with
// zero failed I/Os. Results go to BENCH_failover.json.
func FigFailover(cfg Config) Table {
	t := Table{
		Title:  "Master failover: metadata blackout vs primacy TTL, data path uninterrupted",
		Header: []string{"metric", "value"},
	}
	const primacyTTL = 250 * time.Millisecond
	opts := benchOptions()
	opts.Machines, opts.SSDsPerMachine, opts.HDDsPerMachine = 4, 1, 2
	opts.CallTimeout = 5 * time.Second
	opts.Masters, opts.MasterPrimacyTTL = 3, primacyTTL
	sut, err := open(opts, master.CreateVDiskReq{Size: int64(cfg.pick(8, 4)) * util.ChunkSize})
	if err != nil {
		return t.failed("build", err)
	}
	defer sut.Close()
	c, cl, reg := sut.c, sut.cl, sut.c.Metrics()
	doc := failoverBenchDoc{PrimacyTTLMs: ms(primacyTTL)}

	// Healthy metadata baseline.
	doc.HealthyMetaMs = ms(timed(func() { _, err = cl.OpenMeta("bench") }))
	if err != nil {
		return t.failed("healthy metadata probe", err)
	}

	// The data stream the failover must not touch: random 4 KiB writes for
	// the whole measurement window, concurrent with the kill.
	var res phase
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res = measure(sut.vd, foreground(cfg.ops(3000), cfg.Seed+41, cfg.cellTime()))
	}()

	// One session per surviving master: a session with one endpoint makes
	// one attempt per call, so a probe never hunts and never backs off.
	var survivors []*transport.MasterSession
	prober := c.Net.Dialer("failover-prober", transport.NodeConfig{})
	for _, addr := range c.MasterAddrs()[1:] {
		sess := transport.NewMasterSession(prober, c.Clock(), []string{addr}, primacyTTL/4, nil)
		defer sess.Close()
		survivors = append(survivors, sess)
	}
	promoted := func() int64 {
		for _, sess := range survivors {
			if st, err := sess.Call(nil, proto.MOpGetVDisk, master.GetVDiskReq{Name: "bench"}, nil); err == nil && st == proto.StatusOK {
				return 1
			}
		}
		return 0
	}
	meta := func() int64 {
		if _, err := cl.OpenMeta("bench"); err != nil {
			return 0
		}
		return 1
	}

	// Let the workload settle, then kill the bootstrap primary and time the
	// blackout twice over: as the promotion, and as the client lives it.
	time.Sleep(cfg.cellTime() / 4)
	var epochBefore uint64
	if p := c.PrimaryMaster(); p != nil {
		epochBefore = p.Epoch()
	}
	c.KillMaster(0)
	var clientBlackout time.Duration
	var clientOK bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		clientBlackout, clientOK = waitQuiet(meta, 0, 0, 30*time.Second)
	}()
	blackout, ok := waitQuiet(promoted, 0, 0, 30*time.Second)
	wg.Wait()
	if !ok || !clientOK {
		return t.failed("failover", errors.New("no metadata service within 30s of the kill"))
	}
	doc.BlackoutMs = ms(blackout)
	doc.Ratio = doc.BlackoutMs / doc.PrimacyTTLMs
	doc.ClientBlackoutMs = ms(clientBlackout)

	doc.DataOps = res.Ops
	doc.DataErrors = res.Errors
	doc.DataIOPS = res.IOPS
	doc.Promotions = reg.Counter(master.MetricMasterPromotions).Load()
	if p := c.PrimaryMaster(); p != nil {
		doc.PromotedAddr = p.Addr()
		doc.Epoch = p.Epoch()
	}

	t.Rows = append(t.Rows,
		[]string{"healthy metadata op", f1(doc.HealthyMetaMs) + " ms"},
		[]string{"primacy TTL", f0(doc.PrimacyTTLMs) + " ms"},
		[]string{"metadata blackout (promotion)", f1(doc.BlackoutMs) + " ms"},
		[]string{"blackout / TTL", f2(doc.Ratio)},
		[]string{"client's first metadata op", f1(doc.ClientBlackoutMs) + " ms"},
		[]string{"data ops through blackout", f0(float64(doc.DataOps))},
		[]string{"data errors", f0(float64(doc.DataErrors))},
		[]string{"data IOPS", f0(doc.DataIOPS)},
		[]string{"promotions", f0(float64(doc.Promotions))},
		[]string{"promoted master", doc.PromotedAddr},
	)
	t.check("data errors during the master blackout", float64(doc.DataErrors), "==", 0)
	t.check("master promotions", float64(doc.Promotions), "==", 1)
	t.check("epochs the promotion advanced", float64(doc.Epoch)-float64(epochBefore), ">", 0)
	// Wall time against model time: host load can trip it.
	t.checkFull("metadata blackout / primacy TTL", doc.Ratio, "<=", 2.0)
	t.Notes = append(t.Notes,
		"blackout = primary-kill to the first metadata op a surviving master serves, asked",
		"directly every 20 ms: the rank-1 standby waits out one primacy TTL of silence, probes",
		"its peers, bumps the epoch, and fences the deposed master at every chunkserver before",
		"serving. The client's first op also waits out its session's back-off between sweeps.")

	t.writeArtifact(cfg, "failover", &doc)
	return t
}
