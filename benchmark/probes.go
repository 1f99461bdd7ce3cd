package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/bufpool"
	"ursa/internal/client"
	"ursa/internal/clock"
	"ursa/internal/coldtier"
	"ursa/internal/jindex"
	"ursa/internal/journal"
	"ursa/internal/master"
	"ursa/internal/metrics"
	"ursa/internal/objstore"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/redundancy"
	"ursa/internal/simdisk"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// Layer probes: each times a fixed number of direct calls into one module's
// public interface, one caller, zero-cost device and network models. They
// are the outside-in start of a 4 KiB cost ledger: what one call into each
// layer costs in software alone, next to what the whole stack costs.

func zeroSSD() simdisk.SSDModel { return simdisk.SSDModel{Capacity: 1 * util.GiB, Parallelism: 32} }

func zeroHDD() simdisk.HDDModel {
	return simdisk.HDDModel{Capacity: 2 * util.GiB, TrackSkip: 512 * util.KiB}
}

// prober runs probe batches and collects their metrics and spans.
type prober struct {
	tr    *tracer
	div   int
	out   []metric
	calls int // calls the last batch made, untimed ones included
	err   error
}

// batch times n calls of fn (after n/10 untimed ones) and returns the
// nanoseconds per call. After a failure it does nothing.
func (p *prober) batch(name string, n int, fn func(i int) error) float64 {
	if p.err != nil {
		return 0
	}
	n = max(n/p.div, 10)
	p.calls = n + n/10
	for i := 0; i < n/10; i++ {
		if p.err = fn(i); p.err != nil {
			p.err = fmt.Errorf("probe %s: %w", name, p.err)
			return 0
		}
	}
	sp := p.tr.begin(name, "probe", 0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if p.err = fn(i); p.err != nil {
			p.err = fmt.Errorf("probe %s: %w", name, p.err)
			return 0
		}
	}
	ns := float64(time.Since(t0)) / float64(n)
	p.tr.end(sp, nil)
	return ns
}

func (p *prober) emit(name string, v float64, unit string) {
	p.out = append(p.out, metric{name, v, unit})
}

// ns runs a batch and reports it in nanoseconds per call.
func (p *prober) ns(name string, n int, fn func(i int) error) float64 {
	v := p.batch(name, n, fn)
	p.emit(name, v, "ns")
	return v
}

// us runs a batch and reports it in microseconds per call.
func (p *prober) us(name string, n int, fn func(i int) error) float64 {
	v := p.batch(name, n, fn) / 1e3
	p.emit(name, v, "us")
	return v * 1e3
}

func mallocs() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs)
}

// runProbes runs every layer probe; div divides the op counts.
func runProbes(tr *tracer, div int) ([]metric, error) {
	p := &prober{tr: tr, div: div}
	data := make([]byte, 4*util.KiB)
	fillPayload(data, 1, 0, 0)
	const span = 4 * util.MiB
	offs := make([]int64, 64)
	r := rng{s: 42}
	for i := range offs {
		offs[i] = int64(r.intn(span/4096)) * 4096
	}
	id := blockstore.MakeChunkID(7, 0)

	// simdisk, blockstore: one zero-cost SSD with a 4 MiB written window.
	ssd := simdisk.NewSSD(zeroSSD(), clock.Realtime)
	defer ssd.Close()
	ssdWrite := p.ns("simdisk.ssd_write4k_ns", 20000, func(i int) error {
		return ssd.WriteAt(data, 512*util.MiB+offs[i&63])
	})
	store := blockstore.New(ssd, 256*util.MiB)
	if err := store.Create(id); err != nil {
		return nil, err
	}
	for off := int64(0); off < span; off += int64(len(data)) {
		if err := store.WriteAt(id, data, off); err != nil {
			return nil, err
		}
		store.Sums().Stamp(id, off, data)
	}
	bsRead := p.ns("blockstore.read4k_ns", 20000, func(i int) error {
		buf := bufpool.Get(4096)
		defer bufpool.Put(buf)
		if err := store.ReadAt(id, buf, offs[i&63]); err != nil {
			return err
		}
		return store.Sums().Verify(id, offs[i&63], buf)
	})
	bsWrite := p.ns("blockstore.write4k_ns", 20000, func(i int) error {
		if err := store.WriteAt(id, data, offs[i&63]); err != nil {
			return err
		}
		store.Sums().Stamp(id, offs[i&63], data)
		return nil
	})

	// journal: one set, SSD journal over an HDD sink, replayer running.
	hdd := simdisk.NewHDD(zeroHDD(), clock.Realtime)
	defer hdd.Close()
	sink := blockstore.New(hdd, 1*util.GiB)
	if err := sink.Create(id); err != nil {
		return nil, err
	}
	jset := journal.NewSet(clock.Realtime, sink, journal.DefaultConfig())
	jset.AddSSDJournal("probe", ssd, 768*util.MiB, 128*util.MiB)
	jset.Start()
	defer jset.Close()
	bg := opctx.Background(clock.Realtime)
	jAppend := p.ns("journal.append4k_ns", 5000, func(i int) error {
		return jset.Append(bg, id, offs[i&63], data, uint64(i+1))
	})
	jset.Drain()

	// jindex: inserts with a periodic merge; queries against tree + array.
	ins := jindex.New(0)
	p.ns("jindex.insert_ns", 100000, func(i int) error {
		ins.Insert(uint32(offs[i&63]/util.SectorSize), 8, uint64(i)*8)
		if i&4095 == 4095 {
			ins.MergeNow()
		}
		return nil
	})
	qix := jindex.New(0)
	for sec := uint32(0); sec < 8192; sec += 16 {
		qix.Insert(sec, 8, uint64(sec))
	}
	qix.MergeNow()
	for i, o := range offs {
		qix.Insert(uint32(o/util.SectorSize), 4, 1<<20+uint64(i)*4)
	}
	var ext, holes []jindex.Extent
	p.ns("jindex.query_ns", 100000, func(i int) error {
		off := uint32(offs[i&63] / util.SectorSize)
		ext = qix.QueryInto(ext[:0], off, 64)
		holes = jindex.HolesInto(holes[:0], off, 64, ext)
		return nil
	})

	// proto: one 4 KiB write frame, encoded and decoded in place.
	src := &proto.Message{Op: proto.OpWrite, Chunk: id, Length: 4096, Payload: data}
	var frame bytes.Buffer
	p.ns("proto.encode4k_ns", 50000, func(int) error {
		frame.Reset()
		return src.Encode(&frame)
	})
	raw := append([]byte(nil), frame.Bytes()...)
	rd := bytes.NewReader(raw)
	var msg proto.Message
	p.ns("proto.decode4k_ns", 50000, func(int) error {
		rd.Reset(raw)
		return msg.Decode(rd)
	})
	bufpool.Put(msg.Payload)

	// transport: a 4 KiB echo RPC over a zero-latency SimNet.
	net := transport.NewSimNet(clock.Realtime, 0)
	l, err := net.Listen("echo", transport.NodeConfig{})
	if err != nil {
		return nil, err
	}
	srv := transport.Serve(l, func(m *proto.Message) *proto.Message {
		bufpool.Retain(m.Payload) // the reply aliases the request's buffer
		resp := m.Reply(proto.StatusOK)
		resp.Payload = m.Payload
		return resp
	})
	defer srv.Close()
	peers := transport.NewPeers(net.Dialer("probe", transport.NodeConfig{}), clock.Realtime)
	defer peers.CloseAll()
	echo := p.ns("transport.echo4k_ns", 10000, func(int) error {
		m := proto.GetMessage()
		m.Op = proto.OpNop
		m.Payload = bufpool.Get(4096)
		resp, err := peers.Do(bg, "echo", m, time.Second)
		if err != nil {
			return err
		}
		bufpool.Put(resp.Payload)
		proto.Recycle(resp)
		return nil
	})

	getput := p.ns("bufpool.getput_ns", 200000, func(int) error {
		bufpool.Put(bufpool.Get(4096))
		return nil
	})
	reg := metrics.NewRegistry()
	observe := p.ns("opctx.new_observe_ns", 100000, func(int) error {
		op := opctx.New(clock.Realtime, time.Second).WithSink(reg)
		op.Stage(opctx.StageNet).Stop()
		return nil
	})

	// redundancy: both parity pieces of RS(4,2) over 4 × 64 KiB.
	code, err := redundancy.NewCode(4, 2)
	if err != nil {
		return nil, err
	}
	pieces := make([][]byte, 4)
	for i := range pieces {
		pieces[i] = make([]byte, 64*util.KiB)
		fillPayload(pieces[i], 2, i, 0)
	}
	parity := make([]byte, 64*util.KiB)
	rsNs := p.batch("redundancy.rs42_encode_mbps", 200, func(int) error {
		code.EncodeParity(0, pieces, parity)
		code.EncodeParity(1, pieces, parity)
		return nil
	})
	if rsNs > 0 {
		p.emit("redundancy.rs42_encode_mbps", 4*64*util.KiB/1e6/(rsNs/1e9), "MB/s")
	} else {
		p.emit("redundancy.rs42_encode_mbps", 0, "MB/s")
	}

	// objstore, coldtier: 1 MiB objects and extents, near-free store model.
	obj := objstore.New(clock.Realtime, objstore.TestModel())
	big := make([]byte, util.MiB)
	fillPayload(big, 3, 0, 0)
	got := make([]byte, util.MiB)
	p.us("objstore.putget1m_us", 100, func(i int) error {
		oid := uint64(1000 + i)
		if err := obj.Put(oid, big); err != nil {
			return err
		}
		if err := obj.Get(oid, 0, got); err != nil {
			return err
		}
		return obj.Delete(oid)
	})
	ol, err := net.Listen("objstore", transport.NodeConfig{})
	if err != nil {
		return nil, err
	}
	osrv := transport.Serve(ol, obj.Handler)
	defer osrv.Close()
	cold := coldtier.NewClient(peers, "objstore")
	sw := coldtier.NewSegWriter(cold, bg, 1, 2)
	if err := sw.Add(0, big); err != nil {
		return nil, err
	}
	refs, err := sw.Close()
	if err != nil {
		return nil, err
	}
	p.us("coldtier.fetch1m_us", 100, func(int) error {
		buf, err := cold.GetExtent(bg, refs[0])
		bufpool.Put(buf)
		return err
	})

	// client cache: 4 KiB hits in a warm 64 KiB block of a cached device.
	cached := client.WithCache(memDevice(make([]byte, util.MiB)), util.MiB)
	hit := make([]byte, 4096)
	p.ns("client.cache_hit_ns", 200000, func(i int) error {
		return cached.ReadAt(hit, int64(i&15)*4096)
	})

	// core, master: the whole stack on zero-cost models, one caller.
	s, err := setUp(clusterOptions(zeroSSD(), zeroHDD(), 0), stackProbeWorkload(), 1)
	if err != nil {
		return nil, err
	}
	defer s.close()
	buf := make([]byte, 4096)
	a0 := mallocs()
	stackRead := p.us("core.stack_read4k_us", 5000, func(i int) error {
		return s.vd.ReadAt(buf, offs[i&63])
	})
	readAllocs := (mallocs() - a0) / float64(p.calls)
	a0 = mallocs()
	stackWrite := p.us("core.stack_write4k_us", 3000, func(i int) error {
		return s.vd.WriteAt(data, offs[i&63])
	})
	writeAllocs := (mallocs() - a0) / float64(p.calls)
	p.emit("core.stack_read4k_allocs", readAllocs, "1/op")
	p.emit("core.stack_write4k_allocs", writeAllocs, "1/op")
	// What the path probes do not explain of the stack's time: a read is
	// an RPC, a verified store read, a buffer lease and an op context; a
	// tiny write is three parallel RPCs (counted once), a stamped store
	// write and a journal append.
	unattributed := func(stack float64, parts ...float64) float64 {
		if stack <= 0 {
			return 0
		}
		sum := 0.0
		for _, v := range parts {
			sum += v
		}
		return 1 - sum/stack
	}
	p.emit("core.unattributed_read_frac", unattributed(stackRead, echo, bsRead, getput, observe), "ratio")
	p.emit("core.unattributed_write_frac",
		unattributed(stackWrite, echo, bsWrite, ssdWrite, jAppend, getput, observe), "ratio")
	s.drain()
	n := 0
	p.us("master.create_open_us", 50, func(int) error {
		n++
		name := fmt.Sprintf("probe-%d", n)
		if _, err := s.client.CreateVDisk(master.CreateVDiskReq{Name: name, Size: util.ChunkSize}); err != nil {
			return err
		}
		vd, err := s.client.Open(name)
		if err != nil {
			return err
		}
		if err := vd.Close(); err != nil {
			return err
		}
		return s.client.DeleteVDisk(name)
	})
	return p.out, p.err
}

// stackProbeWorkload is the 4 MiB filled span the stack probes read and
// overwrite.
func stackProbeWorkload() *workload {
	n := 4 * util.MiB / (4 * util.KiB)
	return &workload{name: "stack-probe", blockSize: 4 * util.KiB, blocks: n, blocksPerChunk: n}
}

// memDevice is a RAM-backed client.Device, the lower device of the cache
// probe.
type memDevice []byte

func (d memDevice) ReadAt(p []byte, off int64) error  { copy(p, d[off:]); return nil }
func (d memDevice) WriteAt(p []byte, off int64) error { copy(d[off:], p); return nil }
func (d memDevice) Size() int64                       { return int64(len(d)) }
func (d memDevice) Flush() error                      { return nil }
func (d memDevice) Close() error                      { return nil }
