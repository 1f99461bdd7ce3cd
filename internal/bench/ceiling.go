package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/core"
	"ursa/internal/jindex"
	"ursa/internal/master"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/simdisk"
	"ursa/internal/transport"
	"ursa/internal/util"
	"ursa/internal/workload"
)

// ceilingSSD / ceilingHDD are zero-cost device models: every fixed latency
// is zero and bandwidth is unlimited, so the simulated devices complete
// instantly and the measured IOPS ceiling is pure software cost —
// allocation and GC pressure, checksum passes, copies, and lock
// contention.
func ceilingSSD() simdisk.SSDModel {
	return simdisk.SSDModel{Capacity: 16 * util.GiB, Parallelism: 64}
}

func ceilingHDD() simdisk.HDDModel {
	return simdisk.HDDModel{Capacity: 32 * util.GiB, TrackSkip: 512 * util.KiB}
}

// ceilingVolume keeps setup cheap while spreading I/O over many chunks.
const ceilingVolume = 1 * util.GiB

// ceilingCell is one (op, queue depth) end-to-end measurement.
type ceilingCell struct {
	Op   string  `json:"op"` // "read" or "write"
	QD   int     `json:"qd"`
	IOPS float64 `json:"iops"` // wall-clock ops/s (noisy on shared hosts)
	// IOPSCPU is ops per process-CPU-second (getrusage user+sys delta).
	// With zero-cost devices the stack is pure software, so CPU-normalized
	// IOPS is the ceiling metric that survives host contention: wall-clock
	// stalls inflate elapsed time but not CPU charged to the process.
	IOPSCPU   float64 `json:"iops_cpu"`
	MeanLatUs float64 `json:"mean_lat_us"`
	// AllocsPerOp / BytesPerOp are process-wide heap mallocs and bytes per
	// completed I/O over the run (runtime.MemStats deltas): the end-to-end
	// allocation bill of one 4 KiB request across client, transport,
	// servers, and journals.
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// ceilingMicro is one steady-state hot-path micro-benchmark result.
type ceilingMicro struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type ceilingDoc struct {
	artifact
	Cells []ceilingCell  `json:"cells"`
	Micro []ceilingMicro `json:"micro"`
	// PoolLeases / PoolInUseAfter snapshot the buffer pool after every cell
	// has quiesced: InUseAfter must be zero (no leaked leases).
	PoolLeases     int64 `json:"pool_leases"`
	PoolInUseAfter int64 `json:"pool_in_use_after"`
}

// ceilingShape is what one cell runs. The figure's cells are 4 KiB random
// reads and writes of a plain vdisk; the perf-smoke gates add the two write
// paths those bypass (e2eCounts).
type ceilingShape struct {
	write   bool
	qd      int
	block   int   // bytes per op; 0 means 4 KiB
	striped bool  // a 4 x 128 KiB striped vdisk
	span    int64 // working set, pre-written by the warm-up; 0 means half the volume
}

func (sh ceilingShape) String() string {
	op := "read"
	if sh.write {
		op = "write"
	}
	if sh.block > 0 {
		op += fmt.Sprintf(" %dk", sh.block/util.KiB)
	}
	if sh.striped {
		op += " striped"
	}
	return fmt.Sprintf("%s qd%d", op, sh.qd)
}

// The shapes of the e2e-16k-primary and e2e-256k-striped gates, shared with
// the allocation ledger: 16 KiB is above the client-directed threshold and
// below the journal bypass, 256 KiB on a 4 x 128 KiB stripe is two bypass
// fragments; both over a span small enough that the warm-up's fill has made
// every simulated page they touch.
var (
	e2ePrimary16k  = ceilingShape{write: true, qd: 1, block: 16 * util.KiB, span: 64 * util.MiB}
	e2eStriped256k = ceilingShape{write: true, qd: 1, block: 256 * util.KiB, striped: true, span: 64 * util.MiB}
)

// ceilingOptions is the ceiling cluster: the evaluation's, with zero-cost
// devices and network.
func ceilingOptions() core.Options {
	opts := benchOptions()
	opts.SSDModel, opts.HDDModel, opts.NetLatency = ceilingSSD(), ceilingHDD(), 0
	// No overflow journal, and small SSD journals (16 MiB per backup HDD)
	// that wrap during the warm phase, so the measured window never touches
	// cold journal pages: the lazily allocated 64 KiB simdisk pages would
	// otherwise dominate the per-op allocation bill and bury the hot-path cost
	// this figure isolates.
	opts.HDDJournal = false
	opts.JournalFraction = 0.002
	return opts
}

// startCeiling builds and warms the cluster of one cell and returns it with
// the spec of one measured pass.
func startCeiling(cfg Config, sh ceilingShape) (*sut, workload.Spec, error) {
	req := master.CreateVDiskReq{Name: "ceiling", Size: ceilingVolume}
	if sh.striped {
		req.StripeGroup, req.StripeUnit = 4, 128*util.KiB
	}
	s, err := open(ceilingOptions(), req)
	if err != nil {
		return nil, workload.Spec{}, err
	}
	spec := workload.Spec{
		Pattern: workload.RandRead, BlockSize: 4 * util.KiB, QueueDepth: sh.qd,
		Ops: 1 << 30, WorkingSet: ceilingVolume / 2,
		Seed: cfg.Seed + uint64(sh.qd)*131, MaxTime: cfg.cellTime() / 2,
	}
	if sh.write {
		spec.Pattern = workload.RandWrite
	}
	if sh.block > 0 {
		spec.BlockSize = sh.block
	}
	if sh.span > 0 {
		spec.WorkingSet = sh.span
	}
	// Warm to steady state outside the measured window: Fill pre-writes the
	// whole working set (allocating every lazy data page on the simulated
	// devices and stamping checksums), then a burst of random writes of the
	// cell's size wraps the small journal regions so their pages are warm
	// too. Without this, cold 64 KiB simdisk pages dominate the allocation
	// bill.
	warm := spec
	warm.Pattern = workload.RandWrite
	warm.Fill = true
	warm.MaxTime = 2 * time.Second
	measure(s.vd, warm)
	return s, spec, nil
}

// runCeilingCell measures random IOPS end-to-end on a hybrid URSA cluster
// with zero-cost devices and network.
func runCeilingCell(cfg Config, sh ceilingShape) ceilingCell {
	s, spec, err := startCeiling(cfg, sh)
	if err != nil {
		return ceilingCell{}
	}
	defer s.Close()
	cell := ceilingCell{QD: sh.qd, Op: "read"}
	if sh.write {
		cell.Op = "write"
	}

	// Several measurement passes, keeping the pass with the best
	// CPU-normalized IOPS. The container shares its host: a neighbor's
	// cache/TLB pollution inflates our measured CPU-seconds unpredictably
	// mid-pass, and best-of-N converges on the least-contended sample — the
	// software ceiling this figure is after.
	for pass := cfg.pick(3, 2); pass > 0; pass-- {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0 := cpuSeconds()
		p := measure(s.vd, spec)
		cpu1 := cpuSeconds()
		runtime.ReadMemStats(&m1)

		if dc := cpu1 - cpu0; dc > 0 && float64(p.Ops)/dc > cell.IOPSCPU {
			cell.IOPSCPU = float64(p.Ops) / dc
			cell.IOPS = p.IOPS
			cell.MeanLatUs = p.MeanLatMs * 1e3
			if p.Ops > 0 {
				cell.AllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(p.Ops)
				cell.BytesPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(p.Ops)
			}
		}
	}
	return cell
}

// ceilingMicros runs the steady-state hot-path micro-benchmarks. Each loop
// body is one hot-path unit of work; all must run at 0 allocs/op.
func ceilingMicros() []ceilingMicro {
	ssd := simdisk.NewSSD(ceilingSSD(), clock.Realtime)
	defer ssd.Close()
	store := blockstore.New(ssd, util.AlignDown(ssd.Size(), util.ChunkSize))
	id := blockstore.MakeChunkID(7, 0)
	if err := store.Create(id); err != nil {
		return nil
	}
	const span = 4 * util.MiB // working window, pre-written in setup
	data := make([]byte, 4*util.KiB)
	for i := range data {
		data[i] = byte(i)
	}
	for off := int64(0); off < span; off += int64(len(data)) {
		if err := store.WriteAt(id, data, off); err != nil {
			return nil
		}
		store.Sums().Stamp(id, off, data)
	}
	offs := make([]int64, 64)
	r := util.NewRand(42)
	for i := range offs {
		offs[i] = util.AlignDown(r.Int63n(span-4096), util.SectorSize)
	}

	run := func(name string, fn func(i int)) ceilingMicro {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn(i)
			}
		})
		return ceilingMicro{
			Name:        name,
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
	}

	var out []ceilingMicro
	out = append(out, run("read4k-verify", func(i int) {
		buf := bufpool.Get(4096)
		off := offs[i&63]
		if err := store.ReadAt(id, buf, off); err != nil {
			panic(err)
		}
		if err := store.Sums().Verify(id, off, buf); err != nil {
			panic(err)
		}
		bufpool.Put(buf)
	}))
	out = append(out, run("write4k-stamp", func(i int) {
		off := offs[i&63]
		if err := store.WriteAt(id, data, off); err != nil {
			panic(err)
		}
		store.Sums().Stamp(id, off, data)
	}))

	// Large ranges — a striped write's 128 KiB fragment at each of its three
	// replicas: above the 32 KiB stack scratch, stamp and verify walk the
	// range in batches instead of allocating. Sums only, past the window the
	// 4 KiB loops read back.
	big := make([]byte, 128*util.KiB)
	r.Fill(big)
	bigOff := func(i int) int64 { return span + int64(i&15)*int64(len(big)) }
	for i := 0; i < 16; i++ {
		store.Sums().Stamp(id, bigOff(i), big)
	}
	out = append(out, run("stamp128k", func(i int) {
		store.Sums().Stamp(id, bigOff(i), big)
	}))
	out = append(out, run("verify128k", func(i int) {
		if err := store.Sums().Verify(id, bigOff(i), big); err != nil {
			panic(err)
		}
	}))

	// Decode with payload-capacity reuse: one encoded 4 KiB frame, decoded
	// repeatedly into the same leased buffer.
	var frame bytes.Buffer
	src := &proto.Message{Op: proto.OpWrite, Chunk: id, Length: 4096, Payload: data}
	if err := src.Encode(&frame); err != nil {
		return out
	}
	raw := frame.Bytes()
	rd := bytes.NewReader(raw)
	var msg proto.Message
	msg.Payload = bufpool.Get(4096)
	out = append(out, run("decode4k-reuse", func(i int) {
		rd.Reset(raw)
		if err := msg.Decode(rd); err != nil {
			panic(err)
		}
	}))
	bufpool.Put(msg.Payload)

	// Client-directed fan-out: one 3-branch flight per op against loopback
	// replicas that answer at once, isolating the transport's own machinery
	// (flight lease, message frames, pending table, the dispatcher's
	// completion and wake-up) from the server stack. This is the loop
	// writeClientDirected runs per tiny write.
	peers := transport.NewPeers(loopDialer{}, clock.Realtime)
	op := opctx.New(clock.Realtime, 0)
	fanAddrs := [3]string{"r0", "r1", "r2"}
	payload := bufpool.Get(4096)
	copy(payload, data)
	out = append(out, run("write4k-client-directed", func(i int) {
		fl := peers.Begin(op, len(fanAddrs), time.Second)
		for t := range fanAddrs {
			m := proto.GetMessage()
			m.Op = proto.OpReplicate
			m.Chunk = id
			m.Off = offs[i&63]
			m.Length = 4096
			m.Version = 7
			m.Payload = payload
			bufpool.Retain(payload)
			fl.Go(t, fanAddrs[t], m)
		}
		for range fanAddrs {
			if r, ok := fl.Next(); !ok || r.Err || r.Status != proto.StatusOK {
				panic("fan-out loopback failed")
			}
		}
		fl.Finish()
	}))
	bufpool.Put(payload)
	op.Release()
	peers.CloseAll()

	// Journal-index insert: cycling writes over a small working set, with a
	// periodic merge so the merge's retired-array scratch and the node
	// freelist are exercised (their cost amortizes to zero per op, which is
	// the claim).
	ins := jindex.New(0)
	insJOff := uint64(0)
	out = append(out, run("jindex-insert", func(i int) {
		ins.Insert(uint32(offs[i&63]/util.SectorSize), 8, insJOff)
		insJOff += 8
		if i&4095 == 4095 {
			ins.MergeNow()
		}
	}))

	// Journal-index query: resolve a 32 KiB range against a populated
	// tree+array index into reused extent and hole buffers.
	qix := jindex.New(0)
	qJOff := uint64(0)
	for sec := uint32(0); sec < 8192; sec += 16 {
		qix.Insert(sec, 8, qJOff) // half coverage: extents and holes alike
		qJOff += 8
	}
	qix.MergeNow() // push into the sorted array level
	for i, o := range offs {
		qix.Insert(uint32(o/util.SectorSize), 4, qJOff+uint64(i)*4)
	}
	var qExt, qHoles []jindex.Extent
	out = append(out, run("jindex-query", func(i int) {
		off := uint32(offs[i&63] / util.SectorSize)
		qExt = qix.QueryInto(qExt[:0], off, 64)
		qHoles = jindex.HolesInto(qHoles[:0], off, 64, qExt)
	}))
	return out
}

// loopConn is the zero-cost replica behind the write4k-client-directed
// micro: a connection whose Send settles the request exactly as a served one
// would be (one payload reference consumed, frame recycled) and queues an OK
// reply from the message pool for the client's dispatcher to Recv.
type loopConn struct {
	replies chan *proto.Message
	closed  chan struct{}
	once    sync.Once
}

func (c *loopConn) Send(m *proto.Message) error {
	resp := m.Reply(proto.StatusOK)
	bufpool.Put(m.Payload)
	proto.Recycle(m)
	select {
	case c.replies <- resp:
		return nil
	case <-c.closed:
		proto.Recycle(resp)
		return transport.ErrConnClosed
	}
}

func (c *loopConn) Recv() (*proto.Message, error) {
	select {
	case m := <-c.replies:
		return m, nil
	case <-c.closed:
		return nil, transport.ErrConnClosed
	}
}

func (c *loopConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// loopDialer connects every address to a loopConn of its own.
type loopDialer struct{}

func (loopDialer) Dial(string) (transport.MsgConn, error) {
	// Deeper than any test's fan-out, so Send never waits on the dispatcher.
	return &loopConn{replies: make(chan *proto.Message, 64), closed: make(chan struct{})}, nil
}

// FigCeiling benchmarks the software IOPS ceiling: 4 KiB random reads and
// writes end-to-end through client, transport, chunk servers, and journals,
// with every simulated device and network hop at zero cost — so the ceiling
// is set purely by the software stack. It is a trajectory, compared run
// over run through BENCH_ceiling.json; steady-state micro-benchmarks
// confirm the hot path runs at 0 allocs/op, and the figure's own
// acceptance is that the buffer pool drains to zero leases once every
// cell has shut down.
func FigCeiling(cfg Config) Table {
	t := Table{
		Title:  "Software IOPS ceiling: 4KiB random, zero-cost devices, hybrid 3x3",
		Header: []string{"op", "qd", "iops/cpu-s", "iops", "mean lat", "allocs/op", "B/op"},
	}
	var doc ceilingDoc
	for _, op := range []string{"read", "write"} {
		for _, qd := range []int{1, 8, 32} {
			c := runCeilingCell(cfg, ceilingShape{write: op == "write", qd: qd})
			doc.Cells = append(doc.Cells, c)
			t.Rows = append(t.Rows, []string{
				op, f0(float64(qd)), f0(c.IOPSCPU), f0(c.IOPS),
				usStr(c.MeanLatUs),
				f1(c.AllocsPerOp), f0(c.BytesPerOp),
			})
		}
	}
	doc.Micro = ceilingMicros()
	doc.PoolLeases = bufpool.Leases()
	doc.PoolInUseAfter = bufpool.InUse()

	micro := Table{
		ID:     "Fig C micro",
		Title:  "steady-state hot path, via testing.Benchmark",
		Header: []string{"loop", "ns/op", "allocs/op", "B/op"},
	}
	for _, m := range doc.Micro {
		micro.Rows = append(micro.Rows, []string{
			m.Name, f0(m.NsPerOp),
			fmt.Sprintf("%d", m.AllocsPerOp), fmt.Sprintf("%d", m.BytesPerOp),
		})
	}
	t.Extra = append(t.Extra, micro)
	t.Notes = append(t.Notes,
		"iops/cpu-s is ops per process-CPU-second: with zero-cost devices the stack is",
		"pure software, so CPU-normalized IOPS is the ceiling and is immune to host noise;",
		"allocs/op is process-wide heap mallocs per completed I/O (client+servers+journals).",
		fmt.Sprintf("pool leases=%d, in-use after drain=%d", doc.PoolLeases, doc.PoolInUseAfter))
	t.check("buffer pool leases in use after drain", float64(doc.PoolInUseAfter), "==", 0)
	t.writeArtifact(cfg, "ceiling", &doc)
	return t
}
