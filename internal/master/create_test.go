package master

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/chunkserver"
	"ursa/internal/clock"
	"ursa/internal/coldtier"
	"ursa/internal/metrics"
	"ursa/internal/proto"
	"ursa/internal/redundancy"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// slotServers stands in for chunk servers that only keep a slot table: they
// answer OpCreateChunk, OpDeleteChunk and the inventory (an OpGetVersion
// listing nothing) the way a chunk server does — entry by entry, in list
// order, a create stopping at its first failure, a delete refusing a slot
// above its entry's view — and remember which slots exist, in what order
// each server made them and how many messages of each op each server was
// sent, so a fan-out can be counted and its clean-up audited without a
// device model in the way.
type slotServers struct {
	net *transport.SimNet
	reg *metrics.Registry // the master's

	mu    sync.Mutex
	slots map[string]map[blockstore.ChunkID]proto.ChunkResult // by server address: what an inventory answers for each
	order map[string][]blockstore.ChunkID                     // creates in the order each server ran them
	made  map[blockstore.ChunkID][]chunkserver.ChunkCreate    // every create entry run, by chunk
	msgs  map[string]map[proto.Op]int                         // messages received, by server and op
	// refuse, when set, names the creates that are answered StatusError.
	refuse func(addr string, id blockstore.ChunkID) bool
	// fence, when non-zero, makes every server answer StatusStaleEpoch at it.
	fence uint64
	// flushHold is how long a server takes to answer an OpFlushChunks.
	flushHold time.Duration
	// answer, when set, sees every message first, outside mu; a non-nil
	// reply is the server's answer.
	answer func(addr string, msg *proto.Message) *proto.Message
}

// newSlotEnv starts a master over the given number of machines of slot
// servers (one SSD and one HDD address each) on a SimNet with the given
// one-way latency in real time, and returns them with their close.
func newSlotEnv(t *testing.T, machines int, latency, rpcTimeout time.Duration) (*Master, *slotServers, func()) {
	t.Helper()
	ss := newSlotServers(transport.NewSimNet(clock.Realtime, latency))
	m := New(Config{
		Addr: "master", Clock: clock.Realtime, HybridMode: true, RPCTimeout: rpcTimeout,
		Dialer: ss.net.Dialer("master", transport.NodeConfig{}), Metrics: ss.reg,
	})
	stop := ss.serve(t, m, machines)
	return m, ss, func() {
		stop()
		m.Close()
	}
}

func newSlotServers(net *transport.SimNet) *slotServers {
	return &slotServers{
		net: net, reg: metrics.NewRegistry(),
		slots: make(map[string]map[blockstore.ChunkID]proto.ChunkResult), order: make(map[string][]blockstore.ChunkID),
		made: make(map[blockstore.ChunkID][]chunkserver.ChunkCreate), msgs: make(map[string]map[proto.Op]int),
	}
}

// serve starts the machines' slot servers and registers them with m. It
// returns their close.
func (ss *slotServers) serve(t *testing.T, m *Master, machines int) func() {
	t.Helper()
	var srvs []*transport.Server
	stop := func() {
		for _, srv := range srvs {
			srv.Close()
		}
	}
	for i := 0; i < machines; i++ {
		for _, kind := range []string{"ssd", "hdd"} {
			addr := fmt.Sprintf("s%d/%s", i, kind)
			l, err := ss.net.Listen(addr, transport.NodeConfig{})
			if err != nil {
				stop()
				t.Fatal(err)
			}
			ss.slots[addr] = make(map[blockstore.ChunkID]proto.ChunkResult)
			ss.msgs[addr] = make(map[proto.Op]int)
			srvs = append(srvs, transport.Serve(l, func(msg *proto.Message) *proto.Message { return ss.handle(addr, msg) }))
			m.AddServer(addr, fmt.Sprintf("s%d", i), kind == "ssd", util.TiB)
		}
	}
	return stop
}

func (ss *slotServers) handle(addr string, msg *proto.Message) *proto.Message {
	if ss.answer != nil {
		if r := ss.answer(addr, msg); r != nil {
			return r
		}
	}
	if msg.Op == proto.OpFlushChunks {
		return ss.flush(addr, msg)
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.msgs[addr][msg.Op]++
	if ss.fence != 0 {
		r := msg.Reply(proto.StatusStaleEpoch)
		r.Epoch = ss.fence
		return r
	}
	var results []proto.ChunkResult
	switch msg.Op {
	case proto.OpCreateChunk:
		var entries []chunkserver.ChunkCreate
		if err := json.Unmarshal(msg.Payload, &entries); err != nil || len(entries) == 0 || len(entries) > proto.MaxBatch {
			return msg.Reply(proto.StatusError)
		}
		for _, e := range entries {
			switch {
			case ss.refuse != nil && ss.refuse(addr, e.Chunk):
				return msg.ReplyBatch(append(results, proto.ChunkResult{Status: proto.StatusError}))
			case ss.has(addr, e.Chunk):
				results = append(results, proto.ChunkResult{Status: proto.StatusExists})
			default:
				ss.slots[addr][e.Chunk] = proto.ChunkResult{View: e.View, Cold: len(e.Cold) > 0}
				ss.order[addr] = append(ss.order[addr], e.Chunk)
				ss.made[e.Chunk] = append(ss.made[e.Chunk], e)
				results = append(results, proto.ChunkResult{})
			}
		}
	case proto.OpDeleteChunk:
		entries, err := proto.DecodeChunks(msg.Payload)
		if err != nil {
			return msg.Reply(proto.StatusError)
		}
		for _, e := range entries {
			if ss.slots[addr][e.Chunk].View > e.UpTo {
				results = append(results, proto.ChunkResult{Status: proto.StatusStaleView})
				continue
			}
			delete(ss.slots[addr], e.Chunk)
			results = append(results, proto.ChunkResult{})
		}
	case proto.OpGetVersion:
		if len(msg.Payload) != 0 {
			return msg.Reply(proto.StatusOK)
		}
		for id, r := range ss.slots[addr] {
			r.Chunk = id
			results = append(results, r)
		}
	default:
		return msg.Reply(proto.StatusOK)
	}
	return msg.ReplyBatch(results)
}

// flush answers an OpFlushChunks after flushHold — outside ss.mu, so that
// servers flush side by side — with an empty extent table per chunk.
func (ss *slotServers) flush(addr string, msg *proto.Message) *proto.Message {
	ss.mu.Lock()
	ss.msgs[addr][msg.Op]++
	hold := ss.flushHold
	ss.mu.Unlock()
	var req chunkserver.FlushChunksReq
	if err := json.Unmarshal(msg.Payload, &req); err != nil {
		return msg.Reply(proto.StatusError)
	}
	time.Sleep(hold)
	payload, _ := json.Marshal(chunkserver.FlushChunksResp{Extents: make([][]coldtier.ExtentRef, len(req.Chunks))})
	r := msg.Reply(proto.StatusOK)
	r.Payload = payload
	return r
}

// has reports whether the server at addr holds a slot of id (ss.mu held).
func (ss *slotServers) has(addr string, id blockstore.ChunkID) bool {
	_, ok := ss.slots[addr][id]
	return ok
}

func (ss *slotServers) total() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	n := 0
	for _, held := range ss.slots {
		n += len(held)
	}
	return n
}

// sent returns how many messages of op each server has received, and forgets
// them.
func (ss *slotServers) sent(op proto.Op) map[string]int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	out := make(map[string]int)
	for addr, byOp := range ss.msgs {
		if byOp[op] > 0 {
			out[addr] = byOp[op]
			delete(byOp, op)
		}
	}
	return out
}

// holders returns how many replicas of meta each server holds.
func holders(meta *VDiskMeta) map[string]int {
	out := make(map[string]int)
	for _, cm := range meta.Chunks {
		for _, r := range cm.Replicas {
			out[r.Addr]++
		}
	}
	return out
}

// requireOneEach fails unless exactly the servers of want were sent messages,
// and each of them per messages of its replicas.
func requireOneEach(t *testing.T, what string, got, want map[string]int, per int) {
	t.Helper()
	for addr, n := range want {
		if need := (n + per - 1) / per; got[addr] != need {
			t.Errorf("%s: %s holds %d replicas and was sent %d messages, want %d", what, addr, n, got[addr], need)
		}
	}
	for addr, n := range got {
		if want[addr] == 0 {
			t.Errorf("%s: %s holds no replica and was sent %d messages", what, addr, n)
		}
	}
}

// requireChunkOrder fails unless every server made its slots in chunk-index
// order.
func (ss *slotServers) requireChunkOrder(t *testing.T) {
	t.Helper()
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for addr, ids := range ss.order {
		for i := 1; i < len(ids); i++ {
			if ids[i].Index() < ids[i-1].Index() {
				t.Fatalf("%s made chunk %d's slot before chunk %d's", addr, ids[i-1].Index(), ids[i].Index())
			}
		}
	}
}

// TestCreateFansOutChunks: creating, and deleting, a 256-chunk (16 GiB) vdisk
// at 1 ms one-way latency on twelve machines costs each server that holds a
// replica exactly one message and the others none — a round trip, not the 768
// it costs one OpCreateChunk at a time (1.85 s measured then; 307 ms with
// PR 22's chunk-at-a-time window) — every replica's slot exists afterwards and
// every server made its slots in chunk order.
func TestCreateFansOutChunks(t *testing.T) {
	clock.Test(t, func() {
		const chunks, latency = 256, time.Millisecond
		m, ss, cleanup := newSlotEnv(t, 12, latency, 5*time.Second)
		defer cleanup()
		t0 := time.Now()
		meta, err := m.CreateVDisk(CreateVDiskReq{Name: "wide", Size: chunks * util.ChunkSize})
		took := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		if len(meta.Chunks) != chunks || ss.total() != 3*chunks {
			t.Fatalf("%d chunks placed, %d slots created, want %d and %d", len(meta.Chunks), ss.total(), chunks, 3*chunks)
		}
		ss.requireChunkOrder(t)
		requireOneEach(t, "create", ss.sent(proto.OpCreateChunk), holders(meta), proto.MaxBatch)
		t.Logf("created %d chunks in %v (one at a time: at least %v)", chunks, took, time.Duration(3*chunks)*2*latency)
		if took > 25*time.Millisecond && !raceEnabled {
			t.Fatalf("create took %v, want a round trip and change (≤ 25 ms)", took)
		}

		t0 = time.Now()
		if _, err := m.deleteVDisk(GetVDiskReq{Name: "wide"}); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(t0); took > 25*time.Millisecond && !raceEnabled {
			t.Fatalf("delete took %v, want a round trip and change (≤ 25 ms)", took)
		}
		requireOneEach(t, "delete", ss.sent(proto.OpDeleteChunk), holders(meta), proto.MaxBatch)
		if n := ss.total(); n != 0 {
			t.Fatalf("delete left %d slots", n)
		}
	})
}

// TestCreateLayoutMatchesSerial: the order in which each server makes a
// vdisk's slots — which, with a bump allocator per disk, is the disk's layout
// — is the order a create of one replica at a time gives: chunk by chunk,
// replica by replica, on a fresh cluster placed the same way.
func TestCreateLayoutMatchesSerial(t *testing.T) {
	clock.Test(t, func() {
		const chunks = 256
		req := CreateVDiskReq{Name: "laid-out", Size: chunks * util.ChunkSize, StripeGroup: 4}
		m, batched, cleanup := newSlotEnv(t, 3, 0, 5*time.Second)
		defer cleanup()
		meta, err := m.CreateVDisk(req)
		if err != nil {
			t.Fatal(err)
		}
		m2, serial, cleanup := newSlotEnv(t, 3, 0, 5*time.Second)
		defer cleanup()
		for i, cm := range meta.Chunks {
			for pos, r := range cm.Replicas {
				create := chunkserver.CreateChunks(chunkserver.ChunkCreate{
					Chunk: blockstore.MakeChunkID(meta.ID, uint32(i)), CreateChunkReq: m2.createReq(cm, pos, req.Redundancy, Pos{})})
				if st, _ := send(m2, r.Addr, create, 5*time.Second); st != proto.StatusOK {
					t.Fatalf("serial create of chunk %d on %s failed", i, r.Addr)
				}
			}
		}
		if !reflect.DeepEqual(batched.order, serial.order) {
			t.Fatalf("layouts differ:\nbatched: %v\nserial:  %v", batched.order, serial.order)
		}
	})
}

// TestCreateSplitsAboveBatchCap: a vdisk with more replicas on a server than
// one message may carry goes out as several, one at a time per server, and
// every server still makes its slots in chunk order.
func TestCreateSplitsAboveBatchCap(t *testing.T) {
	clock.Test(t, func() {
		const chunks = 3*proto.MaxBatch + 64 // primaries: a third each on three SSD servers; backups: two thirds each
		m, ss, cleanup := newSlotEnv(t, 3, 0, 5*time.Second)
		defer cleanup()
		meta, err := m.CreateVDisk(CreateVDiskReq{Name: "huge", Size: chunks * util.ChunkSize})
		if err != nil {
			t.Fatal(err)
		}
		if ss.total() != 3*chunks {
			t.Fatalf("%d slots created, want %d", ss.total(), 3*chunks)
		}
		ss.requireChunkOrder(t)
		got := ss.sent(proto.OpCreateChunk)
		requireOneEach(t, "create", got, holders(meta), proto.MaxBatch)
		if got["s0/ssd"] != 2 || got["s0/hdd"] != 3 {
			t.Fatalf("messages per server %v: the vdisk did not split as meant", got)
		}
		if _, err := m.deleteVDisk(GetVDiskReq{Name: "huge"}); err != nil {
			t.Fatal(err)
		}
		requireOneEach(t, "delete", ss.sent(proto.OpDeleteChunk), holders(meta), proto.MaxBatch)
		if n := ss.total(); n != 0 {
			t.Fatalf("delete left %d slots", n)
		}
	})
}

// TestCreateLastReplicaFails: one entry of one server's create message is
// refused — the first, one in the middle, and the very last create of the
// vdisk, the last replica of the last chunk. That server made the entries
// before it and none after it, the create fails, the vdisk is gone from the
// master, no server is left holding a slot, and the name is free for a retry.
func TestCreateLastReplicaFails(t *testing.T) {
	const chunks = 40
	for _, doomed := range []uint32{0, 17, chunks - 1} {
		t.Run(fmt.Sprintf("chunk-%d", doomed), func(t *testing.T) {
			clock.Test(t, func() {
				m, ss, cleanup := newSlotEnv(t, 3, 0, 5*time.Second)
				defer cleanup()
				var refusedAt string
				ss.refuse = func(addr string, id blockstore.ChunkID) bool {
					// Placement is not known up front: refuse the chunk on whichever
					// HDD server is asked for it first (called with ss.mu held).
					if id.Index() != doomed || addr[len(addr)-3:] != "hdd" || (refusedAt != "" && refusedAt != addr) {
						return false
					}
					refusedAt = addr
					return true
				}
				_, err := m.CreateVDisk(CreateVDiskReq{Name: "doomed", Size: chunks * util.ChunkSize})
				if err == nil {
					t.Fatal("create succeeded though a replica was refused")
				}
				if refusedAt == "" {
					t.Fatal("the doomed chunk's create never arrived")
				}
				for _, id := range ss.order[refusedAt] {
					if id.Index() >= doomed {
						t.Fatalf("%s made chunk %d's slot at or after the refused chunk %d", refusedAt, id.Index(), doomed)
					}
				}
				if _, err := m.getVDisk(GetVDiskReq{Name: "doomed"}); !errors.Is(err, util.ErrNotFound) {
					t.Fatalf("failed create left the vdisk behind: %v", err)
				}
				if n := ss.total(); n != 0 {
					t.Fatalf("failed create left %d slots on the servers", n)
				}
				// The name and the servers are free for the next attempt.
				ss.mu.Lock()
				ss.refuse = nil
				ss.mu.Unlock()
				if _, err := m.CreateVDisk(CreateVDiskReq{Name: "doomed", Size: chunks * util.ChunkSize}); err != nil {
					t.Fatalf("retry after a failed create: %v", err)
				}
				if n := ss.total(); n != 3*chunks {
					t.Fatalf("retry created %d slots, want %d", n, 3*chunks)
				}
			})
		})
	}
}

// TestDeleteBoundedByOneTimeout: with one server partitioned from the master,
// deleting a 64-chunk vdisk waits for that server once — not once per replica
// on it — and succeeds: the vdisk is gone and the reachable servers hold no
// slot. A create that one server refuses while another is partitioned cleans
// up within the same bound. Once the partition heals, one reconcile pass
// leaves the partitioned server no slot of either vdisk.
func TestDeleteBoundedByOneTimeout(t *testing.T) {
	clock.Test(t, func() {
		const chunks, rpcTimeout = 64, 400 * time.Millisecond
		m, ss, cleanup := newSlotEnv(t, 3, 100*time.Microsecond, rpcTimeout)
		defer cleanup()
		meta, err := m.CreateVDisk(CreateVDiskReq{Name: "stranded", Size: chunks * util.ChunkSize})
		if err != nil {
			t.Fatal(err)
		}
		const cut = "s1/hdd"
		stranded := holders(meta)[cut]
		if stranded < chunks/3 {
			t.Fatalf("only %d replicas on %s: the test would exercise nothing", stranded, cut)
		}
		reachable := func() (n int) {
			ss.mu.Lock()
			defer ss.mu.Unlock()
			for addr, held := range ss.slots {
				if addr != cut {
					n += len(held)
				}
			}
			return n
		}
		ss.net.Partition("master", cut) // the connection is up: sends now vanish
		t0 := time.Now()
		_, err = m.deleteVDisk(GetVDiskReq{Name: "stranded"})
		took := time.Since(t0)
		if err != nil {
			t.Fatalf("delete with %s partitioned: %v", cut, err)
		}
		if took < rpcTimeout || took > 2*rpcTimeout {
			t.Fatalf("delete took %v, want one RPC timeout (%v) and a round trip", took, rpcTimeout)
		}
		if n := reachable(); n != 0 {
			t.Fatalf("delete left %d slots on reachable servers", n)
		}

		// A create: s2/hdd refuses the last entry of its message, s1/hdd hears
		// nothing. One timeout for the create, one for its clean-up.
		ss.mu.Lock()
		ss.refuse = func(addr string, id blockstore.ChunkID) bool { return addr == "s2/hdd" && id.Index() == chunks-1 }
		ss.mu.Unlock()
		t0 = time.Now()
		_, err = m.CreateVDisk(CreateVDiskReq{Name: "refused", Size: chunks * util.ChunkSize})
		took = time.Since(t0)
		if err == nil {
			t.Fatal("create succeeded with a server refusing and a server partitioned")
		}
		if took > 3*rpcTimeout {
			t.Fatalf("failed create took %v, want two RPC timeouts (%v each) and change", took, rpcTimeout)
		}
		if _, err := m.getVDisk(GetVDiskReq{Name: "refused"}); !errors.Is(err, util.ErrNotFound) {
			t.Fatalf("failed create left the vdisk behind: %v", err)
		}
		if n := reachable(); n != 0 {
			t.Fatalf("failed create left %d slots on reachable servers", n)
		}

		ss.net.Heal("master", cut)
		if n, err := m.Reconcile(); err != nil || n != stranded {
			t.Fatalf("the pass reaped %d slots (%v), want the %d on %s", n, err, stranded, cut)
		}
		ss.mu.Lock()
		defer ss.mu.Unlock()
		for id := range ss.slots[cut] {
			t.Errorf("%s still holds a slot of %v after a pass", cut, id)
		}
	})
}

// TestPromotionBoundedByOneWindowEach: a standby that promotes while the old
// primary and two chunk servers are silent behind a partition spends one
// PrimacyTTL/4 window probing the masters and one fencing the servers — not a
// window per silent peer — and every reachable server hears the new epoch.
// The third master, cut off from the old primary too, makes the majority.
func TestPromotionBoundedByOneWindowEach(t *testing.T) {
	clock.Test(t, func() {
		const ttl = 800 * time.Millisecond
		const window = ttl / 4
		ss := newSlotServers(transport.NewSimNet(clock.Realtime, 100*time.Microsecond))
		peers := []string{"master", "master-1", "master-2"}
		var masters []*Master
		for _, addr := range peers {
			l, err := ss.net.Listen(addr, transport.NodeConfig{})
			if err != nil {
				t.Fatal(err)
			}
			m := New(Config{
				Addr: addr, Clock: clock.Realtime, HybridMode: true, RPCTimeout: time.Second,
				PrimacyTTL: ttl, Peers: peers, Metrics: ss.reg,
				Dialer: ss.net.Dialer(addr, transport.NodeConfig{}),
			})
			m.Serve(l)
			defer m.Close()
			masters = append(masters, m)
		}
		primary, standby, third := masters[0], masters[1], masters[2]
		stop := ss.serve(t, primary, 3)
		defer stop()
		for deadline := time.Now().Add(10 * time.Second); standby.LogSeq() != primary.LogSeq() || third.LogSeq() != primary.LogSeq(); {
			if time.Now().After(deadline) {
				t.Fatal("the standbys never learned the servers")
			}
			time.Sleep(time.Millisecond)
		}
		// The test promotes the standby itself: no monitor must race it.
		standby.stopReplication()
		third.stopReplication()
		ss.net.Partition("master-2", "master")
		third.mu.Lock()
		third.lastHeard = time.Time{} // it has not heard the primary for ever either
		third.mu.Unlock()
		silent := []string{"master", "s0/ssd", "s0/hdd"}
		for _, addr := range silent {
			// Connect first: a partition drops traffic on a live connection,
			// where a fresh dial would fail at once.
			if _, ok := send(standby, addr, &proto.Message{Op: proto.OpNop}, time.Second); !ok {
				t.Fatalf("%s never answered", addr)
			}
			ss.net.Partition("master-1", addr)
		}
		ss.sent(proto.OpNop)

		standby.mu.Lock()
		standby.lastHeard = time.Time{} // the primary has been silent for ever
		standby.mu.Unlock()
		t0 := time.Now()
		standby.maybePromote()
		took := time.Since(t0)
		if !standby.IsPrimary() || standby.Epoch() != 2 {
			t.Fatalf("standby primary=%v at epoch %d, want primary at epoch 2", standby.IsPrimary(), standby.Epoch())
		}
		if took < 2*window || took > 2*window+window/2 {
			t.Fatalf("promotion took %v, want one %v window for the probe and one for the fence", took, window)
		}
		fenced := ss.sent(proto.OpNop)
		for _, addr := range []string{"s1/ssd", "s1/hdd", "s2/ssd", "s2/hdd"} {
			if fenced[addr] != 1 {
				t.Errorf("%s was sent %d fences, want 1", addr, fenced[addr])
			}
		}
	})
}

// TestCreateOverExistingSlots: a server that restarted mid-create still has
// the slots it made the first time; the retried create is answered
// StatusExists entry by entry and succeeds.
func TestCreateOverExistingSlots(t *testing.T) {
	clock.Test(t, func() {
		const chunks = 12
		m, ss, cleanup := newSlotEnv(t, 3, 0, 5*time.Second)
		defer cleanup()
		for i := uint32(0); i < chunks; i++ {
			ss.slots["s1/hdd"][blockstore.MakeChunkID(1, i)] = proto.ChunkResult{View: 1} // the first vdisk's ID is 1
		}
		meta, err := m.CreateVDisk(CreateVDiskReq{Name: "again", Size: chunks * util.ChunkSize})
		if err != nil {
			t.Fatalf("create over existing slots: %v", err)
		}
		if meta.ID != 1 || holders(meta)["s1/hdd"] == 0 {
			t.Fatalf("vdisk %d with %d replicas on s1/hdd: the test exercised nothing", meta.ID, holders(meta)["s1/hdd"])
		}
		if n := len(ss.order["s1/hdd"]); n != 0 {
			t.Fatalf("s1/hdd made %d slots it already had", n)
		}
	})
}

// TestCreateCarriesHoldersAndColdRefs: what a replica is created with rides
// in its entry — an RS holder's segment index by its position in the chunk's
// replica list, a cloned chunk's cold extent table on every replica.
func TestCreateCarriesHoldersAndColdRefs(t *testing.T) {
	clock.Test(t, func() {
		m, ss, cleanup := newSlotEnv(t, 4, 0, 5*time.Second)
		defer cleanup()
		spec := redundancy.Spec{Kind: redundancy.KindRS, N: 2, M: 1}
		meta, err := m.CreateVDisk(CreateVDiskReq{Name: "rs21", Size: 5 * util.ChunkSize, Redundancy: spec})
		if err != nil {
			t.Fatal(err)
		}
		for i, cm := range meta.Chunks {
			id := blockstore.MakeChunkID(meta.ID, uint32(i))
			if len(cm.Replicas) != 4 || len(ss.made[id]) != 4 {
				t.Fatalf("chunk %d: %d replicas placed, %d created, want 4", i, len(cm.Replicas), len(ss.made[id]))
			}
			segs := map[int]bool{}
			for _, e := range ss.made[id] {
				if e.Redundancy != spec {
					t.Fatalf("chunk %d created with spec %+v", i, e.Redundancy)
				}
				if e.Holder {
					segs[e.Seg] = true
				} else if len(e.Backups) != 3 {
					t.Fatalf("chunk %d's primary learnt %d holders, want 3", i, len(e.Backups))
				}
			}
			if !segs[0] || !segs[1] || !segs[2] || len(segs) != 3 {
				t.Fatalf("chunk %d's holders store segments %v, want 0, 1 and 2", i, segs)
			}
		}

		// A clone: the snapshot's refs are planted by hand, the way apply does.
		refs := []coldtier.ExtentRef{{Seg: 7, ChunkOff: 0, Len: util.MiB}, {Seg: 7, SegOff: util.MiB, ChunkOff: util.MiB, Len: util.MiB}}
		m.mu.Lock()
		err = m.commitUnlock(entry{PutSnapshot: &entryPutSnapshot{NextID: meta.ID + 1, Meta: SnapshotMeta{
			ID: meta.ID + 1, Name: "gold", Size: 2 * util.ChunkSize, StripeGroup: 1, StripeUnit: defaultStripeUnit,
			Chunks: [][]coldtier.ExtentRef{refs, nil},
		}}})
		if err != nil {
			t.Fatal(err)
		}
		clone, err := m.provision(VDiskMeta{Name: "thin"}, 0, 0, "gold")
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range [][]coldtier.ExtentRef{refs, nil} {
			made := ss.made[blockstore.MakeChunkID(clone.ID, uint32(i))]
			if len(made) != 3 {
				t.Fatalf("clone chunk %d: %d replicas created, want 3", i, len(made))
			}
			for _, e := range made {
				if !reflect.DeepEqual(e.Cold, want) {
					t.Fatalf("clone chunk %d created with cold refs %+v, want %+v", i, e.Cold, want)
				}
			}
		}
	})
}

// TestCreateAfterChunkserverRestart: the master's pooled connection to a
// chunk server dies with the server; the first create that places on the
// restarted server must succeed, not fail once to discover the dead
// connection.
func TestCreateAfterChunkserverRestart(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t, 3, true)
		defer cleanup()
		if _, err := e.m.CreateVDisk(CreateVDiskReq{Name: "warm", Size: 3 * util.ChunkSize}); err != nil {
			t.Fatal(err) // every server now has a pooled connection
		}
		const victim = "m1/hdd"
		pooled, err := e.m.peers.Get(victim)
		if err != nil {
			t.Fatal(err)
		}
		e.net.Crash(victim)
		pooled.Close() // returns once the connection's dispatcher has seen it die
		e.net.Restart(victim)

		meta, err := e.m.CreateVDisk(CreateVDiskReq{Name: "after", Size: 3 * util.ChunkSize})
		if err != nil {
			t.Fatalf("first create after the restart: %v", err)
		}
		placed := false
		for _, cm := range meta.Chunks {
			for _, r := range cm.Replicas {
				placed = placed || r.Addr == victim
			}
		}
		if !placed {
			t.Fatalf("no replica of %+v landed on %s: the test exercised nothing", meta.Chunks, victim)
		}
	})
}

// TestCreateBatchFencedDeposesMaster: a create message answered
// StatusStaleEpoch — by the fence ahead of the chunk server's dispatch, so
// with no per-entry results at all — deposes the master as any fenced command
// does.
func TestCreateBatchFencedDeposesMaster(t *testing.T) {
	clock.Test(t, func() {
		ss := newSlotServers(transport.NewSimNet(clock.Realtime, 0))
		m := New(Config{
			Addr: "master", Clock: clock.Realtime, HybridMode: true, RPCTimeout: time.Second,
			Dialer: ss.net.Dialer("master", transport.NodeConfig{}), PrimacyTTL: time.Minute,
		})
		defer m.Close()
		stop := ss.serve(t, m, 3)
		defer stop()
		if !m.IsPrimary() {
			t.Fatal("rank 0 did not bootstrap as primary")
		}
		fence := m.Epoch() + 5
		ss.mu.Lock()
		ss.fence = fence
		ss.mu.Unlock()
		if _, err := m.CreateVDisk(CreateVDiskReq{Name: "fenced", Size: 8 * util.ChunkSize}); err == nil {
			t.Fatal("create succeeded against fenced servers")
		}
		if m.IsPrimary() || m.Epoch() != fence {
			t.Fatalf("after a fenced create: primary=%v epoch=%d, want deposed at epoch %d", m.IsPrimary(), m.Epoch(), fence)
		}
	})
}

// TestCreateRefusesWhatCannotFit: a vdisk whose primaries or backups need
// more bytes than the servers of their class registered is refused with
// ErrQuota before placement walks it — a 2^50-byte vdisk (2^24 chunks) and
// a one-chunk vdisk in a stripe group of 2^30 each in under a millisecond,
// where the walk held the master's lock for minutes; an RS vdisk whose
// primaries fit but whose segment holders do not — and leaves no slot
// behind. A 16 GiB vdisk, the size perf-smoke creates, is still made.
func TestCreateRefusesWhatCannotFit(t *testing.T) {
	clock.Test(t, func() {
		m, ss, cleanup := newSlotEnv(t, 3, 0, time.Second) // 3 TiB of each class
		defer cleanup()
		for _, req := range []CreateVDiskReq{
			{Name: "huge", Size: 1 << 50},
			{Name: "wide", Size: util.ChunkSize, StripeGroup: 1 << 30},
			{Name: "rs", Size: 5 * util.TiB / 2, Redundancy: redundancy.Spec{Kind: redundancy.KindRS, N: 4, M: 2}},
		} {
			t0 := time.Now()
			_, err := m.CreateVDisk(req)
			if took := time.Since(t0); !errors.Is(err, util.ErrQuota) || took > time.Millisecond {
				t.Errorf("create %q = %v after %v, want ErrQuota within 1 ms", req.Name, err, took)
			}
		}
		if n := ss.total(); n != 0 {
			t.Fatalf("refused creates left %d slots", n)
		}
		if _, err := m.CreateVDisk(CreateVDiskReq{Name: "perf", Size: 16 * util.GiB}); err != nil {
			t.Fatalf("16 GiB create: %v", err)
		}
	})
}
