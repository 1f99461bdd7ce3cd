package bench

import (
	"runtime/debug"

	"ursa/internal/clock"
	"ursa/internal/trace"
	"ursa/internal/util"
	"ursa/internal/workload"
)

// Fig14 regenerates the trace-driven comparison (§6.4): replay the three
// representative MSR volumes (prxy_0, proj_0, mds_1) at QD16 with
// timestamps ignored, against Sheepdog, Ceph, Ursa-SSD and Ursa-Hybrid.
func Fig14(cfg Config) Table {
	t := Table{
		Title:  "Trace-driven average IOPS (QD=16, timestamps ignored)",
		Header: []string{"system", "prxy_0", "proj_0", "mds_1"},
	}
	profiles := trace.Fig14Profiles()
	nOps := cfg.pick(12000, 1500)

	// Generate each trace once so every system replays identical records.
	traces := make([][]trace.Record, len(profiles))
	for i, p := range profiles {
		p.VolumeSize = microVolume / 2
		traces[i] = p.Generate(cfg.Seed+uint64(70+i), nOps)
	}

	t.Notes = append(t.Notes,
		"paper: Ursa-SSD best everywhere; Ursa-Hybrid ≥ Ceph/Sheepdog in their SSD-only mode")
	return t.eachSystem(func(s system) []string {
		row := []string{s.name}
		for _, recs := range traces {
			res := workload.Replay(clock.Realtime, s.dev, recs, 16)
			row = append(row, util.FormatCount(res.IOPS()))
			// Replay allocates response payloads faster than a
			// single-core GC keeps up; collect between traces.
			debug.FreeOSMemory()
		}
		return row
	})
}
