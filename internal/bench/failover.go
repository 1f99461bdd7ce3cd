package bench

import (
	"sync"
	"time"

	"ursa/internal/clock"
	"ursa/internal/core"
	"ursa/internal/master"
	"ursa/internal/util"
	"ursa/internal/workload"
)

// failoverBenchJSON is FigFailover's machine-readable artifact.
const failoverBenchJSON = "BENCH_failover.json"

type failoverBenchDoc struct {
	Bench string `json:"bench"`
	Quick bool   `json:"quick"`
	// The metadata blackout: wall time from the primary master's death to
	// the first metadata operation completed against the promoted standby.
	BlackoutMs   float64 `json:"blackout_ms"`
	PrimacyTTLMs float64 `json:"primacy_ttl_ms"`
	// Ratio = blackout / primacy TTL; the acceptance bar is <= 2.0 (the
	// blackout is bounded by the lease the standby must wait out plus its
	// probe round, not by anything workload-sized).
	Ratio        float64 `json:"ratio"`
	RatioCeiling float64 `json:"ratio_ceiling"`
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
// master is killed mid-run. A prober times the gap from the kill to the
// first metadata op served by the promoted standby; the data stream must
// ride through with zero failed I/Os. Results go to BENCH_failover.json.
func FigFailover(cfg Config) Table {
	t := Table{
		ID:     "Fig F",
		Title:  "Master failover: metadata blackout vs primacy TTL, data path uninterrupted",
		Header: []string{"metric", "value"},
	}
	const primacyTTL = 250 * time.Millisecond
	c, err := core.New(core.Options{
		Machines:         4,
		SSDsPerMachine:   1,
		HDDsPerMachine:   2,
		Mode:             core.Hybrid,
		Clock:            clock.Realtime,
		SSDModel:         benchSSD(),
		HDDModel:         benchHDD(),
		HDDJournal:       true,
		NetLatency:       netLatency,
		ReplTimeout:      5 * time.Second,
		CallTimeout:      5 * time.Second,
		Masters:          3,
		MasterPrimacyTTL: primacyTTL,
	})
	if err != nil {
		t.Notes = append(t.Notes, "build failed: "+err.Error())
		return t
	}
	defer c.Close()
	cl := c.NewClient("bench-client")
	defer cl.Close()

	nChunks := 8
	if cfg.Quick {
		nChunks = 4
	}
	size := int64(nChunks) * util.ChunkSize
	if _, err := cl.CreateVDisk(master.CreateVDiskReq{Name: "bench", Size: size}); err != nil {
		t.Notes = append(t.Notes, "vdisk failed: "+err.Error())
		return t
	}
	vd, err := cl.Open("bench")
	if err != nil {
		t.Notes = append(t.Notes, "open failed: "+err.Error())
		return t
	}
	defer vd.Close()
	reg := c.Metrics()
	doc := failoverBenchDoc{
		Bench:        "failover",
		Quick:        cfg.Quick,
		PrimacyTTLMs: float64(primacyTTL) / float64(time.Millisecond),
		RatioCeiling: 2.0,
	}

	// Healthy metadata baseline.
	h0 := time.Now()
	if _, err := cl.OpenMeta("bench"); err != nil {
		t.Notes = append(t.Notes, "healthy metadata probe failed: "+err.Error())
		return t
	}
	doc.HealthyMetaMs = float64(time.Since(h0)) / float64(time.Millisecond)

	// The data stream the failover must not touch: random 4 KiB writes for
	// the whole measurement window, concurrent with the kill.
	var res workload.Result
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res = workload.Run(clock.Realtime, vd, workload.Spec{
			Pattern:    workload.RandWrite,
			BlockSize:  4 * util.KiB,
			QueueDepth: 8,
			Ops:        cfg.ops(3000),
			Seed:       cfg.Seed + 41,
			MaxTime:    cfg.cellTime(),
		})
	}()

	// Let the workload settle, then kill the bootstrap primary and time the
	// blackout: each probe is one client metadata call, which internally
	// hunts across the endpoint list until the promoted standby answers.
	time.Sleep(cfg.cellTime() / 4)
	var epochBefore uint64
	if p := c.PrimaryMaster(); p != nil {
		epochBefore = p.Epoch()
	}
	kill := time.Now()
	c.KillMaster(0)
	for {
		if _, err := cl.OpenMeta("bench"); err == nil {
			break
		}
		if time.Since(kill) > 30*time.Second {
			t.Notes = append(t.Notes, "ACCEPTANCE FAIL: no metadata service within 30s of the kill")
			wg.Wait()
			return t
		}
	}
	doc.BlackoutMs = float64(time.Since(kill)) / float64(time.Millisecond)
	doc.Ratio = doc.BlackoutMs / doc.PrimacyTTLMs
	wg.Wait()

	doc.DataOps = res.Ops
	doc.DataErrors = res.Errors
	doc.DataIOPS = res.IOPS()
	doc.Promotions = reg.Counter(master.MetricMasterPromotions).Load()
	if p := c.PrimaryMaster(); p != nil {
		doc.PromotedAddr = p.Addr()
		doc.Epoch = p.Epoch()
	}

	t.Rows = append(t.Rows,
		[]string{"healthy metadata op", f1(doc.HealthyMetaMs) + " ms"},
		[]string{"primacy TTL", f0(doc.PrimacyTTLMs) + " ms"},
		[]string{"metadata blackout", f1(doc.BlackoutMs) + " ms"},
		[]string{"blackout / TTL", f2(doc.Ratio) + " (ceiling " + f1(doc.RatioCeiling) + ")"},
		[]string{"data ops through blackout", f0(float64(doc.DataOps))},
		[]string{"data errors", f0(float64(doc.DataErrors))},
		[]string{"data IOPS", f0(doc.DataIOPS)},
		[]string{"promotions", f0(float64(doc.Promotions))},
		[]string{"promoted master", doc.PromotedAddr},
	)
	if doc.DataErrors > 0 {
		t.Notes = append(t.Notes, "ACCEPTANCE FAIL: data path saw errors during the master blackout")
	}
	if doc.Promotions != 1 || doc.Epoch <= epochBefore {
		t.Notes = append(t.Notes, "ACCEPTANCE FAIL: want one promotion to a higher epoch, got "+
			f0(float64(doc.Promotions))+" promotion(s), epoch "+f0(float64(epochBefore))+" -> "+f0(float64(doc.Epoch)))
	}
	if doc.Ratio > doc.RatioCeiling {
		t.missWallClock(cfg, "blackout exceeded "+f1(doc.RatioCeiling)+"x the primacy TTL")
	}
	t.Notes = append(t.Notes,
		"blackout = primary-kill to first metadata op served by the promoted standby;",
		"the rank-1 standby waits out one primacy TTL of silence, probes its peers, bumps",
		"the epoch, and fences the deposed master at every chunkserver before serving.")

	t.writeArtifact(cfg, failoverBenchJSON, &doc)
	return t
}
