package bench

import (
	"fmt"
	"runtime"
	"sort"

	"ursa/internal/bufpool"
	"ursa/internal/core"
	"ursa/internal/master"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// The footprint scenario's sizes: a 16 GiB vdisk (256 chunks, 768 replicas)
// is created and left idle, then a quarter of its chunks get one 4 KiB write
// each, then two batches of connections are opened and left idle.
const (
	footprintChunks  = 256
	footprintTouched = 64
	footprintConns   = 256
)

// openWide starts the ceiling figure's zero-cost cluster with disks large
// enough for a 16 GiB vdisk — room for 256 primaries on 6 SSDs beside the
// journals — and a throwaway vdisk on it, so that what is paid once per
// cluster (the master's and the client's connections to every server) is
// behind the caller and not charged to what it measures.
func openWide() (*sut, error) {
	return open(wideOptions(), master.CreateVDiskReq{Name: "warm", Size: 12 * util.ChunkSize})
}

// wideOptions is the ceiling figure's cluster with disks that hold a 16 GiB
// vdisk.
func wideOptions() core.Options {
	opts := ceilingOptions()
	opts.SSDModel.Capacity = 64 * util.GiB
	opts.HDDModel.Capacity = 128 * util.GiB
	return opts
}

// footprintStage is one settled point of the footprint scenario.
type footprintStage struct {
	name  string
	key   string // the stage's count in perf_baseline.json
	unit  string // what one of units is
	units int
	// pages is the simulated-disk contents at this point (backing pages of
	// every SSD and HDD): heap that is the model's data, not the system's
	// state, and is netted out.
	pages int64
}

// footprintScenario walks a zero-cost three-replica hybrid cluster through
// the states whose memory must follow use, not provisioned size, and calls at
// once the cluster is up and after each state has settled. What at measures
// between two calls — heap in use, or an in-use profile — is the cost of the
// later stage's units.
func footprintScenario(at func(footprintStage)) error {
	s, err := openWide()
	if err != nil {
		return err
	}
	defer s.Close()
	c, cl := s.c, s.cl
	pages := func() (n int64) {
		for _, m := range c.Machines {
			for _, d := range m.SSDs {
				n += d.UsedBytes()
			}
			for _, d := range m.HDDs {
				n += d.UsedBytes()
			}
		}
		return n
	}
	at(footprintStage{name: "cluster up"})

	if _, err := cl.CreateVDisk(master.CreateVDiskReq{Name: "idle", Size: footprintChunks * util.ChunkSize}); err != nil {
		return err
	}
	at(footprintStage{name: "created, never written", key: "created_replica_bytes", unit: "chunk replica", units: 3 * footprintChunks, pages: pages()})

	vd, err := s.attach(cl, "idle")
	if err != nil {
		return err
	}
	block := make([]byte, 4*util.KiB)
	util.NewRand(1).Fill(block)
	for i := 0; i < footprintTouched; i++ {
		if err := vd.WriteAt(block, int64(i)*util.ChunkSize); err != nil {
			return err
		}
	}
	s.drain()
	at(footprintStage{name: "one 4 KiB write each", key: "touched_replica_bytes", unit: "chunk replica", units: 3 * footprintTouched, pages: pages()})

	// Connections, each having carried one message each way. First the SimNet
	// connection alone — both ends and both pipes — then one with the RPC
	// layers on it: a pool of one connection, its dispatcher and its recycled
	// flight at one end, the server's connection loop and a parked handler
	// worker at the other.
	dial := c.Net.Dialer("footprint-client", transport.NodeConfig{})
	bare, err := c.Net.Listen("footprint-bare", transport.NodeConfig{})
	if err != nil {
		return err
	}
	defer bare.Close()
	for i := 0; i < footprintConns; i++ {
		near, err := dial.Dial("footprint-bare")
		if err != nil {
			return err
		}
		defer near.Close()
		far, err := bare.Accept()
		if err != nil {
			return err
		}
		for _, end := range [][2]transport.MsgConn{{near, far}, {far, near}} {
			if err := end[0].Send(&proto.Message{Op: proto.OpNop}); err != nil {
				return err
			}
			if _, err := end[1].Recv(); err != nil {
				return err
			}
		}
	}
	at(footprintStage{name: "idle SimNet connections", key: "idle_conn_bytes", unit: "connection", units: footprintConns, pages: pages()})

	l, err := c.Net.Listen("footprint-rpc", transport.NodeConfig{})
	if err != nil {
		return err
	}
	srv := transport.Serve(l, func(m *proto.Message) *proto.Message { return m.Reply(proto.StatusOK) })
	defer srv.Close()
	op := opctx.New(c.Clock(), 0)
	defer op.Release()
	for i := 0; i < footprintConns; i++ {
		rpc := transport.NewPeers(dial, c.Clock())
		defer rpc.CloseAll()
		if _, err := rpc.Do(op, "footprint-rpc", &proto.Message{Op: proto.OpNop}, 0); err != nil {
			return err
		}
	}
	at(footprintStage{name: "idle RPC connections", key: "idle_rpc_conn_bytes", unit: "connection", units: footprintConns, pages: pages()})
	return nil
}

// settledHeap returns the live heap: collections are forced until pooled
// objects (two cycles for a sync.Pool) are gone.
func settledHeap() int64 {
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// footprintCounts measures the heap each unit of provisioned-but-idle state
// holds, net of simulated-disk pages: the `footprint` gate of make
// perf-smoke. Bytes per created-but-unwritten chunk replica, per chunk
// replica written once, per idle SimNet connection and per idle RPC
// connection over one, and the heap an idle buffer pool keeps
// (poolIdleBytes).
func footprintCounts() (map[string]float64, error) {
	out := make(map[string]float64)
	var heap, pages int64
	err := footprintScenario(func(st footprintStage) {
		now := settledHeap()
		if st.units > 0 {
			out[st.key] = float64(now-heap-(st.pages-pages)) / float64(st.units)
		}
		heap, pages = now, st.pages
	})
	out["pool_idle_bytes"] = poolIdleBytes()
	return out, err
}

// poolIdleBurst is two leases of each of the buffer pool's eight size
// classes, 512 B to 16 MiB (bufpool.classSizes): 43 MiB in all.
var poolIdleBurst = []int{512, 512, 4 << 10, 4 << 10, 16 << 10, 16 << 10, 64 << 10, 64 << 10,
	256 << 10, 256 << 10, 1 << 20, 1 << 20, 4 << 20, 4 << 20, 16 << 20, 16 << 20}

// poolIdleBytes is the heap the buffer pool holds once a burst through
// every size class has been returned and no lease has touched it across the
// collections settledHeap forces: what an idle pool keeps of what it lent.
func poolIdleBytes() float64 {
	before := settledHeap()
	burst := make([][]byte, len(poolIdleBurst))
	for i, n := range poolIdleBurst {
		burst[i] = bufpool.Get(n)
	}
	for _, b := range burst {
		bufpool.Put(b)
	}
	clear(burst)
	return float64(settledHeap() - before)
}

// footprintLedger is the in-use companion of the allocation ledger: the
// footprint scenario run with every allocation profiled, the bytes each stage
// left in use charged to their allocating site.
func footprintLedger() Table {
	t := Table{
		ID:     "Fig L2",
		Title:  "In-use ledger: heap bytes a stage leaves held, by site",
		Header: []string{"stage", "bytes/unit", "bytes", "site", "at"},
	}
	var before map[allocSite]siteCount
	err := footprintScenario(func(st footprintStage) {
		after := allocProfile()
		defer func() { before = after }()
		if st.units == 0 {
			return
		}
		type row struct {
			site  allocSite
			bytes int64
		}
		var rows []row
		var total, other int64
		for site, c := range after {
			held := c.inUse - before[site].inUse
			total += held
			if float64(held)/float64(st.units) < 16 { // below 16 B a unit: noise and one-offs
				other += held
				continue
			}
			rows = append(rows, row{site, held})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].bytes > rows[j].bytes })
		stage := fmt.Sprintf("%s (%d × %s)", st.name, st.units, st.unit)
		per := func(b int64) string { return f0(float64(b) / float64(st.units)) }
		for _, r := range rows {
			t.Rows = append(t.Rows, []string{stage, per(r.bytes), fmt.Sprint(r.bytes), r.site.fn, r.site.line})
		}
		t.Rows = append(t.Rows,
			[]string{stage, per(other), fmt.Sprint(other), "(sites below 16 B a unit)", ""},
			[]string{stage, per(total), fmt.Sprint(total), "TOTAL", "simulated-disk pages included (simdisk.newPage)"})
	})
	if err != nil {
		t.failed("footprint scenario", err)
	}
	t.Notes = append(t.Notes,
		"in use = allocated since the previous stage and not yet freed; the gate (perf_baseline.json, footprint) is the total net of simulated-disk pages.")
	return t
}
