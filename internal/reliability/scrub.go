package reliability

import "ursa/internal/util"

// This file extends the fleet Monte-Carlo to the question the scrubber
// exists to answer: how often does a replication group lose data to LATENT
// sector errors — rot that destroys one replica's copy silently and is
// only discovered (and repaired) when a scrub pass visits it? Whole-disk
// failures are noticed immediately and re-replicated within RepairDays;
// latent errors sit un-noticed until the next scrub, so the scrub interval
// directly sets how long the group runs with silently reduced redundancy.

// ScrubParams parameterizes one latent-error simulation.
type ScrubParams struct {
	// DiskAFR is the whole-disk annual failure rate (noticed immediately).
	DiskAFR float64
	// LSERate is the annual rate of a latent sector error destroying a
	// replica's copy of one group's data (unnoticed until scrubbed).
	LSERate float64
	// ScrubIntervalDays is the scrub period; 0 disables scrubbing (latent
	// errors are never repaired until the disk itself fails and is rebuilt).
	ScrubIntervalDays int
	// RepairDays is how long re-replication of a noticed failure takes.
	RepairDays int
	// Replication is the number of replicas per group.
	Replication int
}

// DefaultScrubParams uses the fleet's HDD failure rate and a latent-error
// rate in the range disk surveys report (roughly one LSE-affected disk per
// dozen disk-years).
func DefaultScrubParams() ScrubParams {
	return ScrubParams{
		DiskAFR:           0.0400,
		LSERate:           0.0800,
		ScrubIntervalDays: 7,
		RepairDays:        1,
		Replication:       3,
	}
}

// SimulateLatent walks groups×years of day-stepped time. Each replica of
// each group independently suffers whole-disk failures (repaired after
// RepairDays) and latent sector errors (repaired at the next scrub tick; a
// disk rebuild also clears them). A day on which no replica holds intact
// data is a data-loss event; the group is then reset whole. Returns the
// fraction of groups that lost data at least once.
func SimulateLatent(p ScrubParams, groups, years int, seed uint64) float64 {
	if p.Replication <= 0 {
		p.Replication = 3
	}
	r := util.NewRand(seed)
	days := years * 365
	pDisk := p.DiskAFR / 365
	pLSE := p.LSERate / 365
	lost := 0

	for g := 0; g < groups; g++ {
		// Per-replica state: day the disk rebuild completes (0 = healthy),
		// and whether a latent error currently corrupts the copy.
		downUntil := make([]int, p.Replication)
		latent := make([]bool, p.Replication)
		// Stagger each group's scrub phase so fleet-wide scrubs are not
		// synchronized — matches a real scrubber's continuous sweep.
		phase := 0
		if p.ScrubIntervalDays > 0 {
			phase = int(r.Int63n(int64(p.ScrubIntervalDays)))
		}
		everLost := false

		for d := 0; d < days; d++ {
			if p.ScrubIntervalDays > 0 && (d+phase)%p.ScrubIntervalDays == 0 {
				for i := range latent {
					if downUntil[i] <= d {
						latent[i] = false // scrub found and repaired the rot
					}
				}
			}
			intact := 0
			for i := 0; i < p.Replication; i++ {
				if downUntil[i] > d {
					continue // rebuilding: holds nothing yet
				}
				if r.Float64() < pDisk {
					// Disk death is noticed at once; the rebuild also
					// clears any latent error on the replaced disk.
					downUntil[i] = d + p.RepairDays
					latent[i] = false
					continue
				}
				if r.Float64() < pLSE {
					latent[i] = true
				}
				if !latent[i] {
					intact++
				}
			}
			if intact == 0 {
				everLost = true
				// Reset the group whole; keep simulating (the metric is
				// "lost at least once", resets avoid double counting).
				for i := range downUntil {
					downUntil[i] = 0
					latent[i] = false
				}
			}
		}
		if everLost {
			lost++
		}
	}
	return float64(lost) / float64(groups)
}

// ScrubSweepRow is one line of a scrub-interval sweep.
type ScrubSweepRow struct {
	IntervalDays int     `json:"intervalDays"` // 0 = never scrub
	LossProb     float64 `json:"lossProb"`     // P(group loses data in the window)
}

// ScrubSweep runs SimulateLatent across scrub intervals, holding everything
// else fixed — the quantitative case for background scrubbing.
func ScrubSweep(p ScrubParams, intervals []int, groups, years int, seed uint64) []ScrubSweepRow {
	rows := make([]ScrubSweepRow, 0, len(intervals))
	for i, iv := range intervals {
		pp := p
		pp.ScrubIntervalDays = iv
		rows = append(rows, ScrubSweepRow{
			IntervalDays: iv,
			LossProb:     SimulateLatent(pp, groups, years, seed+uint64(i)*7919),
		})
	}
	return rows
}
