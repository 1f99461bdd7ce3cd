package master

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/clock"
	"ursa/internal/proto"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// slotServers stands in for chunk servers that only keep a slot table: they
// answer OpCreateChunk and OpDeleteChunk and remember which slots exist, so a
// create's fan-out can be timed and its clean-up audited without a device
// model in the way.
type slotServers struct {
	mu    sync.Mutex
	slots map[string]map[blockstore.ChunkID]bool // by server address
	order map[string][]blockstore.ChunkID        // creates in the order each server ran them
	// refuse, when set, names the one create that is answered StatusError.
	refuse func(addr string, id blockstore.ChunkID) bool
}

// newSlotEnv starts a master over the given number of machines of slot
// servers (one SSD and one HDD address each) on a SimNet with the given
// one-way latency in real time.
func newSlotEnv(t *testing.T, machines int, latency time.Duration) (*Master, *slotServers) {
	t.Helper()
	net := transport.NewSimNet(clock.Realtime, latency)
	m := New(Config{
		Addr: "master", Clock: clock.Realtime, HybridMode: true, RPCTimeout: 5 * time.Second,
		Dialer: net.Dialer("master", transport.NodeConfig{}),
	})
	t.Cleanup(m.Close)
	ss := &slotServers{slots: make(map[string]map[blockstore.ChunkID]bool), order: make(map[string][]blockstore.ChunkID)}
	for i := 0; i < machines; i++ {
		for _, kind := range []string{"ssd", "hdd"} {
			addr := fmt.Sprintf("s%d/%s", i, kind)
			l, err := net.Listen(addr, transport.NodeConfig{})
			if err != nil {
				t.Fatal(err)
			}
			ss.slots[addr] = make(map[blockstore.ChunkID]bool)
			srv := transport.Serve(l, func(msg *proto.Message) *proto.Message { return ss.handle(addr, msg) })
			t.Cleanup(srv.Close)
			m.AddServer(addr, fmt.Sprintf("s%d", i), kind == "ssd")
		}
	}
	return m, ss
}

func (ss *slotServers) handle(addr string, msg *proto.Message) *proto.Message {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	switch msg.Op {
	case proto.OpCreateChunk:
		if ss.refuse != nil && ss.refuse(addr, msg.Chunk) {
			return msg.Reply(proto.StatusError)
		}
		ss.slots[addr][msg.Chunk] = true
		ss.order[addr] = append(ss.order[addr], msg.Chunk)
	case proto.OpDeleteChunk:
		delete(ss.slots[addr], msg.Chunk)
	}
	return msg.Reply(proto.StatusOK)
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

// TestCreateFansOutChunks: creating a 256-chunk (16 GiB) vdisk at 1 ms
// one-way latency on twelve machines costs a few dozen round trips, not the
// 768 it costs one OpCreateChunk at a time (1.85 s measured before; 768 ×
// 2 ms at the very least) — well under a fifth of that — every replica's
// slot exists afterwards, and no server ever had two creates outstanding: its
// slots were made in chunk order.
func TestCreateFansOutChunks(t *testing.T) {
	const chunks, latency = 256, time.Millisecond
	m, ss := newSlotEnv(t, 12, latency)
	t0 := time.Now()
	meta, err := m.CreateVDisk(CreateVDiskReq{Name: "wide", Size: chunks * util.ChunkSize})
	took := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.Chunks) != chunks || ss.total() != 3*chunks {
		t.Fatalf("%d chunks placed, %d slots created, want %d and %d", len(meta.Chunks), ss.total(), chunks, 3*chunks)
	}
	for addr, ids := range ss.order {
		for i := 1; i < len(ids); i++ {
			if ids[i].Index() < ids[i-1].Index() {
				t.Fatalf("%s made chunk %d's slot before chunk %d's", addr, ids[i-1].Index(), ids[i].Index())
			}
		}
	}
	serial := time.Duration(3*chunks) * 2 * latency
	t.Logf("created %d chunks in %v (one at a time: at least %v)", chunks, took, serial)
	if took > serial/5 {
		t.Fatalf("create took %v, more than a fifth of the serial %v", took, serial)
	}
}

// TestCreateLastReplicaFails: the very last create of a vdisk — the last
// replica of the last chunk — is refused after everything else was created.
// The create fails, the vdisk is gone from the master and no server is left
// holding a slot.
func TestCreateLastReplicaFails(t *testing.T) {
	const chunks = 40 // several windows
	m, ss := newSlotEnv(t, 3, 0)
	var refused blockstore.ChunkID
	ss.refuse = func(addr string, id blockstore.ChunkID) bool {
		// Placement is not known up front: refuse the last chunk wherever its
		// last replica (an HDD server, by the time two others hold it) lands.
		if id.Index() != chunks-1 {
			return false
		}
		held := 0
		for _, slots := range ss.slots {
			if slots[id] {
				held++
			}
		}
		if held == 2 {
			refused = id
		}
		return held == 2
	}
	_, err := m.CreateVDisk(CreateVDiskReq{Name: "doomed", Size: chunks * util.ChunkSize})
	if err == nil {
		t.Fatal("create succeeded though a replica was refused")
	}
	if refused == 0 {
		t.Fatal("the last chunk's create never arrived")
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
}

// TestCreateAfterChunkserverRestart: the master's pooled connection to a
// chunk server dies with the server; the first create that places on the
// restarted server must succeed, not fail once to discover the dead
// connection.
func TestCreateAfterChunkserverRestart(t *testing.T) {
	e := newEnv(t, 3, true)
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
}
