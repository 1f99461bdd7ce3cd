package bench

import (
	"sync"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/chunkserver"
	"ursa/internal/clock"
	"ursa/internal/journal"
	"ursa/internal/metrics"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/simdisk"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// hotchunkCell is one queue depth's measurement of 4 KiB random writes
// against a single chunk.
type hotchunkCell struct {
	QD           int     `json:"qd"`
	WritesPerSec float64 `json:"writes_per_sec"`
	MeanLatMs    float64 `json:"mean_lat_ms"`
	P99LatMs     float64 `json:"p99_lat_ms"`
	// MeanBatch is the backup journals' mean group-commit batch size: with
	// one hot chunk it can only exceed 1 when same-chunk appends reach the
	// commit queue concurrently.
	MeanBatch float64 `json:"mean_batch"`
	// PendingMean/PendingMax summarize the per-chunk pending-write depth
	// sampled at each admission (exact, not bucketed: the value histogram's
	// geometric buckets can't resolve small integers).
	PendingMean float64 `json:"pending_mean"`
	PendingMax  int64   `json:"pending_max"`
	// DepWaitP99Ms is the p99 extent-dependency wait.
	DepWaitP99Ms float64 `json:"dep_wait_p99_ms"`
}

type hotchunkBenchDoc struct {
	artifact
	Cells []hotchunkCell `json:"cells"`
	// ScalingQD32 is QD 32 over QD 1 throughput, checked against 2.
	ScalingQD32 float64 `json:"qd32_over_qd1"`
}

// hotchunkChunk is the single chunk every write in a cell targets.
var hotchunkChunk = blockstore.MakeChunkID(7, 0)

// runHotchunkCell measures 4 KiB random writes to ONE chunk on a 3-replica
// group (primary SSD, two backups journaling to SSD) at the given client
// queue depth. The journal sets are not Started: the cell isolates the write
// pipeline from replay traffic.
func runHotchunkCell(cfg Config, qd int) hotchunkCell {
	clk := clock.Realtime
	net := transport.NewSimNet(clk, netLatency)
	reg := metrics.NewRegistry()

	mk := func(addr string, role chunkserver.Role) *chunkserver.Server {
		var store *blockstore.Store
		var jset *journal.Set
		if role == chunkserver.RolePrimary {
			store = blockstore.New(simdisk.NewSSD(benchSSD(), clk), 0)
		} else {
			hdd := simdisk.NewHDD(benchHDD(), clk)
			store = blockstore.New(hdd, util.AlignDown(hdd.Size()/2, util.ChunkSize))
			jcfg := journal.DefaultConfig()
			jcfg.Metrics = reg
			jset = journal.NewSet(clk, store, jcfg)
			jset.AddSSDJournal(addr+"-j", simdisk.NewSSD(benchSSD(), clk), 0, util.GiB)
		}
		srv := chunkserver.New(chunkserver.Config{
			Addr: addr, Clock: clk,
			Dialer:      net.Dialer(addr, transport.NodeConfig{}),
			ReplTimeout: 2 * time.Second,
			Metrics:     reg,
		}, store, jset)
		l, err := net.Listen(addr, transport.NodeConfig{})
		if err != nil {
			panic(err)
		}
		srv.Serve(l)
		return srv
	}
	primary := mk("p", chunkserver.RolePrimary)
	defer primary.Close()
	b1 := mk("b1", chunkserver.RoleBackup)
	defer b1.Close()
	b2 := mk("b2", chunkserver.RoleBackup)
	defer b2.Close()

	create := func(s *chunkserver.Server, backups []string) {
		s.Handle(chunkserver.CreateChunks(chunkserver.ChunkCreate{Chunk: hotchunkChunk, CreateChunkReq: chunkserver.CreateChunkReq{View: 1, Backups: backups}}))
	}
	create(primary, []string{"b1", "b2"})
	create(b1, nil)
	create(b2, nil)

	cli := transport.NewPeers(net.Dialer("cli", transport.NodeConfig{}), clk)
	defer cli.CloseAll()

	// One shared version allocator across the workers: the chunk's version
	// chain is global, exactly as one vdisk client's writeFragment counter
	// is. A failed attempt retries the SAME version (the §4.2.1 retry rule);
	// StatusStaleVersion on a retry means an earlier attempt landed. All of
	// one write's attempts share one budget of the cell's window, so a write
	// lost on a starved host stops its worker within the cell instead of
	// stalling the figure.
	var verMu sync.Mutex
	var next uint64
	perSec, lat := closedLoop(cfg, qd, func(_ int, r *util.Rand) func(int64) bool {
		data := make([]byte, 4*util.KiB)
		r.Fill(data)
		return func(off int64) bool {
			verMu.Lock()
			v := next
			next++
			verMu.Unlock()
			op := opctx.New(clk, loopWindow(cfg))
			defer op.Release()
			for attempt := 0; ; attempt++ {
				resp, err := cli.Do(op, "p", &proto.Message{
					Op: proto.OpWrite, Chunk: hotchunkChunk, Off: off,
					View: 1, Version: v, Payload: data,
				}, 0)
				if err != nil {
					return false // budget spent or connection gone: the cell shows it
				}
				if resp.Status == proto.StatusOK ||
					(attempt > 0 && resp.Status == proto.StatusStaleVersion) {
					return true
				}
			}
		}
	})
	cell := hotchunkCell{
		QD:           qd,
		WritesPerSec: perSec,
		MeanLatMs:    ms(lat.Mean()),
		P99LatMs:     ms(lat.Quantile(0.99)),
	}
	if bh := reg.ValueHist("journal-batch-records"); bh != nil {
		cell.MeanBatch = bh.Mean()
	}
	if ph := reg.ValueHist(chunkserver.MetricPendingWrites); ph != nil {
		cell.PendingMean = ph.Mean()
		cell.PendingMax = ph.Max()
	}
	if dh := reg.LatencyHist(chunkserver.MetricDepWait); dh != nil {
		cell.DepWaitP99Ms = ms(dh.Quantile(0.99))
	}
	return cell
}

// FigHotchunk benchmarks per-chunk write pipelining: 4 KiB random writes
// against a single hot chunk at client queue depths 1/8/32. A single chunk
// is the worst case for a per-chunk lock: no cross-chunk parallelism exists
// to hide it, so throughput can only scale with queue depth through
// same-chunk concurrency at the primary SSD and the backups' group-commit
// queues. The acceptance is exactly that: QD 32 sustains at least twice QD
// 1's writes/s, and the backups' journals batch more than one same-chunk
// append per flush at QD 32. Results are also written to
// BENCH_hotchunk.json.
func FigHotchunk(cfg Config) Table {
	t := Table{
		Title: "Per-chunk write pipelining: 4KiB random writes, one chunk, 3 replicas",
		Header: []string{"QD", "writes/s", "mean lat", "p99 lat",
			"mean batch", "pending max", "dep-wait p99"},
	}
	var doc hotchunkBenchDoc
	for _, qd := range []int{1, 8, 32} {
		c := runHotchunkCell(cfg, qd)
		doc.Cells = append(doc.Cells, c)
		t.Rows = append(t.Rows, []string{
			f0(float64(qd)),
			f0(c.WritesPerSec),
			msUs(c.MeanLatMs),
			msUs(c.P99LatMs),
			f2(c.MeanBatch),
			f0(float64(c.PendingMax)),
			msUs(c.DepWaitP99Ms),
		})
	}
	qd1, qd32 := doc.Cells[0], doc.Cells[2]
	doc.ScalingQD32 = ratio(qd32.WritesPerSec, qd1.WritesPerSec)

	t.Notes = append(t.Notes,
		"writes to disjoint extents of one chunk are admitted concurrently, so the primary SSD",
		"sees real queue depth and the backups' journals batch same-chunk appends per flush.")
	t.check("QD 32 / QD 1 writes/s", doc.ScalingQD32, ">=", 2)
	t.check("QD 32 backup mean batch", qd32.MeanBatch, ">", 1)
	t.writeArtifact(cfg, "hotchunk", &doc)
	return t
}
