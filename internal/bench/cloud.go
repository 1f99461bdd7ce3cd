package bench

import (
	"fmt"

	"ursa/internal/baseline/cloudsim"
	"ursa/internal/clock"
	"ursa/internal/master"
	"ursa/internal/util"
	"ursa/internal/workload"
)

// probeDevice runs the §6.5 probe pattern against a device: alternating
// 4 KB reads and writes, one at a time (the paper probes every 2 seconds
// for two days; the distribution, not the pacing, is the measurement).
func probeDevice(dev workload.Device, n int, seed uint64) (read, write *util.Hist) {
	read, write = util.NewHist(), util.NewHist()
	r := util.NewRand(seed)
	buf := make([]byte, 4*util.KiB)
	r.Fill(buf)
	span := dev.Size() - int64(len(buf))
	for i := 0; i < n; i++ {
		off := util.AlignDown(r.Int63n(span), util.SectorSize)
		var err error
		if d := timed(func() { err = dev.WriteAt(buf, off) }); err == nil {
			write.Observe(d)
		}
		if d := timed(func() { err = dev.ReadAt(buf, off) }); err == nil {
			read.Observe(d)
		}
	}
	return read, write
}

// Fig15 regenerates the production latency comparison (§6.5): URSA's
// hybrid service vs the AWS and QCloud latency profiles, reporting mean,
// p1 and p99 per op kind.
func Fig15(cfg Config) Table {
	t := Table{
		Title:  "Public-cloud latency comparison (mean / p1 / p99)",
		Header: []string{"service", "op", "mean", "p1", "p99"},
	}
	n := cfg.pick(1500, 250)

	addRows := func(name string, read, write *util.Hist) {
		for _, kind := range []struct {
			op string
			h  *util.Hist
		}{{"read", read}, {"write", write}} {
			mean, p1, p99 := kind.h.Percentiles()
			t.Rows = append(t.Rows, []string{name, kind.op, us(mean), us(p1), us(p99)})
		}
	}

	sut, err := open(benchOptions(), master.CreateVDiskReq{Size: util.GiB})
	if err != nil {
		return t.failed("ursa build", err)
	}
	r, w := probeDevice(sut.vd, n, cfg.Seed+81)
	sut.Close()
	addRows("Ursa", r, w)

	aws := cloudsim.New(slowMotion(cloudsim.AWSProfile()), util.GiB, clock.Realtime, cfg.Seed+82)
	r, w = probeDevice(aws, n, cfg.Seed+83)
	addRows("AWS AP-NorthEast-1a", r, w)

	qc := cloudsim.New(slowMotion(cloudsim.QCloudProfile()), util.GiB, clock.Realtime, cfg.Seed+84)
	r, w = probeDevice(qc, n, cfg.Seed+85)
	addRows("QCloud Beijing-1", r, w)

	t.Notes = append(t.Notes,
		"cloud services are latency-profile simulations calibrated to the paper's envelopes",
		"paper: Ursa hybrid comparable to commercial SSD-only services")
	return t
}

// slowMotion rescales a cloud latency profile to the bench's uniform ×10
// time scale so it is comparable with the slow-motion URSA cluster.
func slowMotion(p cloudsim.Profile) cloudsim.Profile {
	p.ReadMedian *= 10
	p.WriteMedian *= 10
	return p
}

// Fig16 regenerates URSA's latency distribution (§6.5): the PDF and CDF of
// the probe stream's latencies (reads and writes combined).
func Fig16(cfg Config) Table {
	t := Table{
		Title:  "Ursa latency PDF & CDF",
		Header: []string{"latency", "pdf", "cdf"},
	}
	sut, err := open(benchOptions(), master.CreateVDiskReq{Size: util.GiB})
	if err != nil {
		return t.failed("build", err)
	}
	defer sut.Close()
	read, write := probeDevice(sut.vd, cfg.pick(1500, 250), cfg.Seed+91)
	all := util.NewHist()
	all.Merge(read)
	all.Merge(write)
	xs, pdf := all.PDF()
	_, cdf := all.CDF()
	// Thin the rows: report every bucket with ≥0.5% mass plus endpoints.
	for i := range xs {
		if pdf[i] < 0.005 && i != 0 && i != len(xs)-1 {
			continue
		}
		t.Rows = append(t.Rows, []string{
			us(xs[i]),
			fmt.Sprintf("%.3f", pdf[i]),
			fmt.Sprintf("%.3f", cdf[i]),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("n=%d mean=%v p50=%v p99=%v",
		all.Count(), all.Mean(), all.Quantile(0.5), all.Quantile(0.99)))
	return t
}
