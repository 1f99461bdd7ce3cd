package bench

import (
	"ursa/internal/blockstore"
	"ursa/internal/clock"
	"ursa/internal/jindex"
	"ursa/internal/journal"
	"ursa/internal/master"
	"ursa/internal/simdisk"
	"ursa/internal/util"
	"ursa/internal/workload"
)

// Ablations: design-choice experiments beyond the paper's figures, probing
// the decisions DESIGN.md calls out. Same ×10 slow-motion scale as the
// main suite.

// AblJournalMedia isolates §3.2's journal placement choice: small backup
// writes absorbed by an SSD journal vs an HDD journal vs no journal at all
// (every write random directly to the backup HDD).
func AblJournalMedia(cfg Config) Table {
	t := Table{
		Title:  "Backup small-write absorption: SSD journal vs HDD journal vs none",
		Header: []string{"configuration", "appends/s", "mean latency"},
	}
	clk := clock.Realtime
	run := func(name string, setup func(hdd *simdisk.HDD, store *blockstore.Store, set *journal.Set)) {
		hdd := simdisk.NewHDD(benchHDD(), clk)
		defer hdd.Close()
		store := blockstore.New(hdd, util.AlignDown(hdd.Size()/2, util.ChunkSize))
		set := journal.NewSet(clk, store, journal.DefaultConfig())
		setup(hdd, store, set)
		set.Start()
		defer set.Close()

		id := blockstore.MakeChunkID(1, 0)
		if err := store.Create(id); err != nil {
			t.failed(name, err)
			return
		}
		data := make([]byte, 4*util.KiB)
		var werr error
		perSec, lat := closedLoop(cfg, 1, func(int, *util.Rand) func(int64) bool {
			version := uint64(0)
			return func(off int64) bool {
				version++
				if set.Append(nil, id, off, data, version) != nil {
					// Quota exhausted or no journal: direct backup write.
					werr = set.WriteDirect(id, data, off)
				}
				return werr == nil
			}
		})
		if werr != nil {
			t.failed(name, werr)
			return
		}
		t.Rows = append(t.Rows, []string{name, f0(perSec), us(lat.Mean())})
	}

	run("SSD journal", func(hdd *simdisk.HDD, store *blockstore.Store, set *journal.Set) {
		ssd := simdisk.NewSSD(benchSSD(), clk)
		set.AddSSDJournal("jssd", ssd, 0, util.GiB)
	})
	run("HDD journal", func(hdd *simdisk.HDD, store *blockstore.Store, set *journal.Set) {
		// The journal lives at the backup HDD's own tail (idle-replayed).
		base := util.AlignDown(hdd.Size()/2, util.ChunkSize)
		set.AddHDDJournal("jhdd", hdd, base, util.GiB)
	})
	run("no journal", func(*simdisk.HDD, *blockstore.Store, *journal.Set) {})
	t.Notes = append(t.Notes,
		"short-term append rates: both journals absorb small writes; without one, the backup runs",
		"at the HDD's random-write rate. HDD journals defer ALL replay to idle periods, so their",
		"long-term sustainable rate is lower than SSD journals', which replay concurrently (§3.2)")
	return t
}

// AblClientDirected isolates §3.2's tiny-write optimization: 4 KB write
// latency with client-directed replication (Tc=8 KB) vs everything routed
// through the primary (Tc=0).
func AblClientDirected(cfg Config) Table {
	t := Table{
		Title:  "Client-directed replication: 4KB write latency (QD=1)",
		Header: []string{"configuration", "mean", "p99"},
	}
	for _, mode := range []struct {
		name string
		tc   int
	}{
		{"client-directed (Tc=8KB)", 8 * util.KiB},
		{"primary-relay only (Tc=0)", 1}, // 1 byte: nothing qualifies as tiny
	} {
		opts := benchOptions()
		opts.TinyThreshold = mode.tc
		t.row(mode.name, opts, master.CreateVDiskReq{Size: 2 * util.GiB}, func(s *sut) []string {
			p := measure(s.vd, workload.Spec{
				Pattern: workload.RandWrite, BlockSize: 4 * util.KiB,
				QueueDepth: 1, Ops: 20000, Seed: cfg.Seed,
				MaxTime: cfg.cellTime() / 2,
			})
			return []string{mode.name, msUs(p.MeanLatMs), msUs(p.P99LatMs)}
		})
	}
	t.Notes = append(t.Notes,
		"client-directed writes reach all replicas in one hop instead of two (§3.2)")
	return t
}

// AblIndexLevels isolates §3.3's two-level index store: query and memory
// cost with everything merged into the sorted array, a balanced 1:6 split,
// and everything left in the red-black tree.
func AblIndexLevels(cfg Config) Table {
	t := Table{
		Title:  "Index levels: query rate and memory vs tree/array split",
		Header: []string{"configuration", "queries/s", "memory"},
	}
	n := cfg.ops(700000)
	build := func(treeFrac float64) *jindex.Index {
		ix := jindex.New(0)
		r := util.NewRand(cfg.Seed + 7)
		mergePoint := int(float64(n) * (1 - treeFrac))
		for i := 0; i < n; i++ {
			ix.Insert(uint32(r.Intn(jindex.MaxOff-64)), uint32(r.Intn(64)+1), uint64(i))
			if treeFrac < 1 && i == mergePoint {
				ix.MergeNow() // everything so far to the array
			}
		}
		if treeFrac == 0 {
			ix.MergeNow() // array-only: nothing left in the tree
		}
		return ix
	}
	for _, cfgRow := range []struct {
		name     string
		treeFrac float64
	}{
		{"array only (fully merged)", 0},
		{"paper split (1/7 in tree)", 1.0 / 7},
		{"tree only (never merged)", 1},
	} {
		ix := build(cfgRow.treeFrac)
		r := util.NewRand(cfg.Seed + 8)
		nq := cfg.ops(100000)
		took := timed(func() {
			for i := 0; i < nq; i++ {
				ix.Query(uint32(r.Intn(jindex.MaxOff-64)), uint32(r.Intn(64)+1))
			}
		})
		rate := float64(nq) / took.Seconds()
		t.Rows = append(t.Rows, []string{
			cfgRow.name,
			util.FormatCount(rate),
			util.FormatBytes(ix.Stats().MemoryBytes),
		})
	}
	t.Notes = append(t.Notes,
		"the sorted array stores 8B/entry vs ~3x node overhead in the tree (§3.3)")
	return t
}

// AblBypassThreshold sweeps Tj (§3.2): mixed-size writes with varying
// journal bypass thresholds. Too low sends small randoms to the HDD; too
// high burns journal space and replay work on large sequential data.
func AblBypassThreshold(cfg Config) Table {
	t := Table{
		Title:  "Journal bypass threshold Tj: mixed-size write IOPS",
		Header: []string{"Tj", "IOPS", "journal-bytes", "bypass-bytes"},
	}
	for _, tj := range []int{4 * util.KiB, 64 * util.KiB, 16 * util.MiB} {
		opts := benchOptions()
		opts.BypassThreshold = tj
		label := util.FormatBytes(int64(tj))
		t.row("Tj="+label, opts, master.CreateVDiskReq{Size: 2 * util.GiB}, func(s *sut) []string {
			// Mixed sizes per the Fig 1 distribution: mostly ≤8 KB with a
			// large tail.
			p := measure(s.vd, workload.Spec{
				Pattern: workload.RandWrite, BlockSize: 16 * util.KiB,
				QueueDepth: 16, Ops: 100000, Seed: cfg.Seed,
				MaxTime: cfg.cellTime() / 2,
			})
			var jBytes, total int64
			for _, js := range s.journals() {
				for _, j := range js.JournalStats() {
					jBytes += j.Bytes
				}
			}
			for _, addr := range s.c.ServerAddrs() {
				total += s.c.Server(addr).Stats().BytesWritten
			}
			bypass := max(total-jBytes, 0)
			return []string{label, util.FormatCount(p.IOPS), util.FormatBytes(jBytes), util.FormatBytes(bypass)}
		})
	}
	t.Notes = append(t.Notes,
		"writes at 16KB: Tj=4KB forces them to random HDD writes; Tj≥64KB journals them (§3.2)")
	return t
}
