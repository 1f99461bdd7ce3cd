package bench

import (
	"math"

	"ursa/internal/blockstore"
	"ursa/internal/clock"
	"ursa/internal/journal"
	"ursa/internal/metrics"
	"ursa/internal/simdisk"
	"ursa/internal/util"
)

// journalCell is one queue depth's measurement.
type journalCell struct {
	QD            int     `json:"qd"`
	AppendsPerSec float64 `json:"appends_per_sec"`
	MeanLatUs     float64 `json:"mean_lat_us"`
	P99LatUs      float64 `json:"p99_lat_us"`
	MeanBatch     float64 `json:"mean_batch"`
	Flushes       int64   `json:"flushes"`
	FlushP50Us    float64 `json:"flush_p50_us"`
	FlushP99Us    float64 `json:"flush_p99_us"`
	// ResidentShare is the part of the cell's unreplayed backlog that was
	// still in memory when the cell ended: resident slab bytes over journal
	// bytes in use, at most 1.
	ResidentShare float64 `json:"resident_share"`
}

type journalBenchDoc struct {
	artifact
	Cells []journalCell `json:"cells"`
	// ScalingQD32 is QD 32 over QD 1 appends/s, checked against 2.
	ScalingQD32 float64 `json:"qd32_over_qd1"`
}

// runJournalCell measures 4 KiB random backup appends against a fresh HDD
// journal at the given queue depth. The set is not Started: the cell
// isolates the append/commit pipeline from replay traffic.
func runJournalCell(cfg Config, qd int) journalCell {
	clk := clock.Realtime
	hdd := simdisk.NewHDD(benchHDD(), clk)
	defer hdd.Close()
	store := blockstore.New(hdd, util.AlignDown(hdd.Size()/2, util.ChunkSize))

	reg := metrics.NewRegistry()
	set := journal.NewSet(clk, store, journal.Config{Metrics: reg})
	// Journal at the backup HDD's own tail, as §3.2 places it.
	base := util.AlignDown(hdd.Size()/2, util.ChunkSize)
	set.AddHDDJournal("jhdd", hdd, base, util.GiB)
	defer set.Close()

	perSec, lat := closedLoop(cfg, qd, func(w int, _ *util.Rand) func(int64) bool {
		// One chunk per worker: the chunkserver contract serializes
		// appends within a chunk, so cross-worker concurrency must come
		// from distinct chunks.
		id := blockstore.MakeChunkID(1, uint32(w))
		data := make([]byte, 4*util.KiB)
		version := uint64(0)
		return func(off int64) bool {
			version++
			return set.Append(nil, id, off, data, version) == nil // quota exhausted: stop this worker
		}
	})
	cell := journalCell{
		QD:            qd,
		AppendsPerSec: perSec,
		MeanLatUs:     usf(lat.Mean()),
		P99LatUs:      usf(lat.Quantile(0.99)),
	}
	st := set.Stats()
	cell.MeanBatch = st.MeanBatch()
	cell.Flushes = st.Flushes
	if used := set.JournalStats()[0].Used; used > 0 {
		cell.ResidentShare = math.Min(1, float64(st.ResidentBytes)/float64(used))
	}
	if fh := reg.LatencyHist(journal.MetricFlushLatency); fh != nil {
		cell.FlushP50Us = usf(fh.Quantile(0.50))
		cell.FlushP99Us = usf(fh.Quantile(0.99))
	}
	return cell
}

// FigJournal benchmarks the journal group-commit pipeline: 4 KiB random
// backup appends to an HDD journal at queue depths 1/8/32, where concurrent
// appenders queue and the leader flushes the whole commit queue as one
// sequential write. The HDD journal is the interesting medium: a
// single-actuator device serializes the queue, so per-record write dispatch
// is exactly what batching collapses. The acceptance is that it does: QD 32
// sustains at least twice QD 1's appends/s, in batches of more than one
// record. Results are also written to BENCH_journal.json.
func FigJournal(cfg Config) Table {
	t := Table{
		Title: "Journal group commit: 4KiB random backup appends, HDD journal",
		Header: []string{"QD", "appends/s", "mean lat", "p99 lat",
			"mean batch", "flush p50", "flush p99", "resident"},
	}
	var doc journalBenchDoc
	for _, qd := range []int{1, 8, 32} {
		c := runJournalCell(cfg, qd)
		doc.Cells = append(doc.Cells, c)
		t.Rows = append(t.Rows, []string{
			f0(float64(qd)),
			f0(c.AppendsPerSec),
			usStr(c.MeanLatUs),
			usStr(c.P99LatUs),
			f1(c.MeanBatch),
			usStr(c.FlushP50Us),
			usStr(c.FlushP99Us),
			f0(100*c.ResidentShare) + "%",
		})
	}
	qd1, qd32 := doc.Cells[0], doc.Cells[2]
	doc.ScalingQD32 = ratio(qd32.AppendsPerSec, qd1.AppendsPerSec)
	t.Notes = append(t.Notes,
		"concurrent Append callers enqueue; the leader writes the whole batch as one contiguous",
		"sequential journal write and wakes every waiter. At QD 1 there is nothing to batch: one",
		"device write per record; from QD 8 the batch grows with the queue.",
		"resident: the replayer never runs in a cell, so the whole cell is backlog; the share of",
		"it still in the set's 8 MiB resident image when the cell ends is what a replay would",
		"drain without reading the journal device. A faster cell leaves a smaller share.")
	t.check("QD 32 / QD 1 appends/s", doc.ScalingQD32, ">=", 2)
	t.check("QD 32 mean batch", qd32.MeanBatch, ">", 1)
	t.writeArtifact(cfg, "journal", &doc)
	return t
}
