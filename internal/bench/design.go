package bench

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"ursa/internal/cluster"
	"ursa/internal/jindex"
	"ursa/internal/jindex/flsm"
	"ursa/internal/master"
	"ursa/internal/util"
	"ursa/internal/workload"
)

// Fig10 regenerates the journal-index comparison (§6.2, Fig 10): insert
// 700k random ranges (start ∈ [0,2^20), length ∈ [1,2^6]) with 100k kept
// in the red-black tree and 600k merged into the array, then run 100k
// random range queries — against URSA's composite-key index and the
// PebblesDB-style point-key FLSM.
func Fig10(cfg Config) Table {
	nInsert := cfg.ops(700000)
	nQuery := cfg.ops(100000)
	treePortion := nInsert / 7 // 100k of 700k stays un-merged

	// The paper's key space is [0, 2^20) with range lengths ≤ 2^6; our
	// index addresses a 2^17-sector chunk, so the workload runs per-chunk
	// with the same range-length distribution (8 chunks tile the 2^20
	// space).
	const space = jindex.MaxOff - 64

	makeOps := func(seed uint64, n int) []jindex.Extent {
		r := util.NewRand(seed)
		ops := make([]jindex.Extent, n)
		for i := range ops {
			ops[i] = jindex.Extent{
				Off:  uint32(r.Intn(space)),
				Len:  uint32(r.Intn(64) + 1),
				JOff: uint64(i),
			}
		}
		return ops
	}
	inserts := makeOps(cfg.Seed+31, nInsert)
	queries := makeOps(cfg.Seed+32, nQuery)

	// URSA index.
	ix := jindex.New(0)
	ursaInsert := timed(func() {
		for i, op := range inserts {
			ix.Insert(op.Off, op.Len, op.JOff)
			if i == nInsert-treePortion {
				ix.MergeNow() // leaves the tail of inserts in the tree
			}
		}
	})
	ursaQuery := timed(func() {
		for _, q := range queries {
			ix.Query(q.Off, q.Len)
		}
	})

	// FLSM baseline. The measured system (PebblesDB) is a persistent
	// store: every insertion pays a WAL append and every range scan reads
	// SSTable blocks. Those per-op device costs are accounted into the
	// elapsed time (see flsm.StorageModel) so the comparison is
	// like-for-like with the paper's, where PebblesDB ran on real SSDs
	// against URSA's purely in-memory index.
	fl := flsm.New(1<<16, 8).WithStorage(flsm.PebblesDBStorage())
	flsmInsert := timed(func() {
		for _, op := range inserts {
			fl.RangeInsert(op.Off, op.Len, op.JOff)
		}
	}) + fl.IOTime()
	ioMark := fl.IOTime()
	flsmQuery := timed(func() {
		for _, q := range queries {
			fl.RangeQuery(q.Off, q.Len)
		}
	}) + (fl.IOTime() - ioMark)

	rate := func(n int, d time.Duration) string {
		return util.FormatCount(float64(n) / d.Seconds())
	}
	t := Table{
		Title:  "Journal index vs PebblesDB-style FLSM (ops/second)",
		Header: []string{"structure", "range-insert", "range-query"},
		Rows: [][]string{
			{"FLSM (PebblesDB-like)", rate(nInsert, flsmInsert), rate(nQuery, flsmQuery)},
			{"Ursa Index", rate(nInsert, ursaInsert), rate(nQuery, ursaQuery)},
		},
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"speedup: %.0fx insert, %.0fx query (paper: ~100x both)",
		flsmInsert.Seconds()/ursaInsert.Seconds(),
		flsmQuery.Seconds()/ursaQuery.Seconds()))
	return t
}

// Fig11 regenerates journal expansion (§6.2, Fig 11): sustained random
// small writes against a deliberately tiny SSD journal quota; when it
// overflows, appends redirect to the HDD journal and IOPS degrade but
// survive. The table is the IOPS timeline with per-journal append counts.
func Fig11(cfg Config) Table {
	t := Table{
		Title:  "Journal expansion: IOPS before/after SSD journal overflow",
		Header: []string{"window", "IOPS", "ssd-appends", "hdd-appends"},
	}
	// One SSD and one HDD per machine, and an SSD journal region made tiny
	// on purpose: the paper lets replay run, and overflow happens when the
	// append rate beats it — a small quota forces that within seconds.
	opts := benchOptions()
	opts.SSDsPerMachine, opts.HDDsPerMachine = 1, 1
	opts.SSDModel.Capacity = 2 * util.GiB
	opts.JournalFraction = 0.004 // ≈8 MB of SSD journal
	sut, err := open(opts, master.CreateVDiskReq{Size: util.ChunkSize})
	if err != nil {
		return t.failed("build", err)
	}
	defer sut.Close()

	windows := 10
	opsPerWindow := 100000 // bounded by window time
	journalAppends := func() (ssdA, hddA int64) {
		for _, js := range sut.journals() {
			for _, j := range js.JournalStats() {
				if strings.HasSuffix(j.Name, "jhdd") {
					hddA += j.Appends
				} else {
					ssdA += j.Appends
				}
			}
		}
		return ssdA, hddA
	}
	var prevSSD, prevHDD int64
	for w := 0; w < windows; w++ {
		p := measure(sut.vd, workload.Spec{
			Pattern: workload.RandWrite, BlockSize: 4 * util.KiB,
			QueueDepth: 16, Ops: opsPerWindow,
			WorkingSet: util.ChunkSize, Seed: cfg.Seed + uint64(w),
			MaxTime: cfg.cellTime() / 4,
		})
		ssdA, hddA := journalAppends()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", w),
			util.FormatCount(p.IOPS),
			fmt.Sprintf("%d", ssdA-prevSSD),
			fmt.Sprintf("%d", hddA-prevHDD),
		})
		prevSSD, prevHDD = ssdA, hddA
	}
	t.Notes = append(t.Notes,
		"overflowed backup load redirects from SSD journals to HDD journals (§3.2)")
	return t
}

// Fig12 regenerates failure recovery (§6.2, Fig 12): fill a chunk, crash
// its primary SSD server, and sample cluster-wide recovery traffic; the
// rate is bounded by the replacement machine's NIC.
func Fig12(cfg Config) Table {
	t := Table{
		Title:  "Failure recovery traffic over time (MB/s)",
		Header: []string{"t", "MB/s"},
	}
	// Enough chunks that the failed SSD is primary for several: their
	// parallel recovery is what drives aggregate traffic to the NIC bound
	// (the paper recovers a whole failed SSD's chunks, §6.2).
	nChunks := cfg.pick(32, 12)
	opts := benchOptions()
	opts.Machines = 4
	opts.NICRate = 50e6 // the paper's ≈500 MB/s bound at 1/10 time scale
	sut, err := open(opts, master.CreateVDiskReq{Size: int64(nChunks) * util.ChunkSize})
	if err != nil {
		return t.failed("build", err)
	}
	defer sut.Close()
	c, cl, vd := sut.c, sut.cl, sut.vd

	// Seed a little data through both paths (journal appends and bypass)
	// so recovery exercises them; a whole-chunk clone moves the full
	// 64 MB regardless of how much was written.
	measure(vd, workload.Spec{
		Pattern: workload.SeqWrite, BlockSize: util.MiB, QueueDepth: 8,
		Ops: 16, Seed: cfg.Seed + 41,
	})
	measure(vd, workload.Spec{
		Pattern: workload.RandWrite, BlockSize: 4 * util.KiB, QueueDepth: 16,
		Ops: 256, Seed: cfg.Seed + 42, MaxTime: 2 * time.Second,
	})

	// Crash the primary of chunk 0 (an SSD server possibly holding many
	// of the vdisk's primaries) and drive recovery for every chunk it
	// served.
	primary, err := cluster.PrimaryAddr(cl, "bench", 0)
	if err != nil {
		return t.failed("placement lookup", err)
	}
	c.CrashServer(primary)

	// Recover every chunk the dead server held, in parallel — recovery
	// pulls from different source disks concurrently, so the aggregate is
	// bounded by the replacement machines' NICs, not a single disk.
	mon := cluster.StartTrafficMonitor(c, 250*time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < nChunks; i++ {
		cm, err := cluster.ChunkPlacement(cl, "bench", i)
		if err != nil {
			continue
		}
		for _, r := range cm.Replicas {
			if r.Addr == primary {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, _ = c.Master.RecoverChunk(vd.ID(), uint32(i), primary, 0)
				}(i)
				break
			}
		}
	}
	wg.Wait()
	samples := mon.Stop()
	var peak float64
	for _, s := range samples {
		if s.Bytes == 0 {
			continue
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1fs", s.T.Seconds()), f1(s.Rate / 1e6)})
		if s.Rate > peak {
			peak = s.Rate
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"peak %.0f MB/s against a 50 MB/s NIC bound — ≈500 MB/s at paper scale (×10 slow motion)",
		peak/1e6))
	t.Notes = append(t.Notes,
		"recovery reads resolve journal extents and HDD data transparently (§6.2)")
	return t
}
