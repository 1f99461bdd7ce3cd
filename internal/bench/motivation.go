package bench

import (
	"fmt"

	"ursa/internal/cachesim"
	"ursa/internal/reliability"
	"ursa/internal/trace"
	"ursa/internal/util"
)

// Fig01 regenerates the CDF of I/O block sizes (§2, Fig 1) from the
// calibrated synthetic trace mix.
func Fig01(cfg Config) Table {
	p := trace.Profile{Name: "all-volumes", ReadFraction: 0.45, VolumeSize: 16 * util.GiB}
	recs := p.Generate(cfg.Seed+1, cfg.ops(200000))
	sizes, cum := trace.SizeCDFOf(recs)
	t := Table{
		Title:  "CDF of I/O block sizes",
		Header: []string{"size", "cumulative"},
	}
	var le8k, le64k float64
	for i, s := range sizes {
		t.Rows = append(t.Rows, []string{util.FormatBytes(int64(s)),
			fmt.Sprintf("%.1f%%", 100*cum[i])})
		if s <= 8*util.KiB {
			le8k = cum[i]
		}
		if s <= 64*util.KiB {
			le64k = cum[i]
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("≤8KB: %.1f%% (paper: >70%%); ≤64KB: %.1f%% (paper: ≈100%%)",
			100*le8k, 100*le64k))
	return t
}

// Fig02 regenerates the cache read-hit analysis (§2, Fig 2): replay every
// catalog volume against an unlimited write-back cache and list the
// low-hit traces.
func Fig02(cfg Config) Table {
	t := Table{
		Title:  "Cache read-hit ratio per trace (unlimited write-back cache)",
		Header: []string{"trace", "hit-ratio", "below-75%"},
	}
	low := 0
	n := cfg.ops(30000)
	for i, e := range trace.Catalog() {
		recs := e.Profile.Generate(cfg.Seed+uint64(100+i), n)
		res := cachesim.Replay(e.Name, recs)
		flag := ""
		if res.HitRatio < cachesim.LowHitThreshold {
			flag = "LOW"
			low++
		}
		t.Rows = append(t.Rows, []string{e.Name,
			fmt.Sprintf("%.1f%%", 100*res.HitRatio), flag})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d of 36 traces below 75%% read hit (paper: 17)", low))
	return t
}

// Tab01 regenerates the deployment failure ratios (Table 1) via the fleet
// Monte-Carlo.
func Tab01(cfg Config) Table {
	years, machines := 25, cfg.pick(2000, 400)
	res := reliability.Simulate(reliability.DefaultFleet(), machines, years, cfg.Seed+3)
	t := Table{
		Title:  "Failure ratios by component (fleet Monte-Carlo)",
		Header: []string{"component", "measured", "paper"},
	}
	for _, name := range []string{"HDD", "SSD", "RAM", "Power", "CPU", "Other"} {
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.1f%%", res.Ratio(name)),
			fmt.Sprintf("%.1f%%", reliability.PaperRatios[name]),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d failures over %d machine-years",
		res.Total, machines*years))
	return t
}
