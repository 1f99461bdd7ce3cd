package master

import (
	"errors"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/clock"
	"ursa/internal/coldtier"
	"ursa/internal/proto"
	"ursa/internal/util"
)

// TestReconcileJudgesSlots: one pass over slot servers each holding slots
// the judge tells apart reaps exactly the garbage — a slot of a deleted
// vdisk at or below the watermark, a stray below its chunk's recorded view —
// with each stray's delete guarded by the view it was seen at, and keeps the
// rest. Then a clone's cold refs: they clear only in a pass in which every
// current replica answers drained, so one replica out of reach keeps them,
// in this pass and in the next when another is out of reach instead.
func TestReconcileJudgesSlots(t *testing.T) {
	clock.Test(t, func() {
		m, ss, cleanup := newSlotEnv(t, 3, 0, 5*time.Second)
		defer cleanup()
		live, err := m.CreateVDisk(CreateVDiskReq{Name: "live", Size: util.ChunkSize})
		if err != nil {
			t.Fatal(err)
		}
		gone, err := m.CreateVDisk(CreateVDiskReq{Name: "gone", Size: util.ChunkSize})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.deleteVDisk(GetVDiskReq{ID: gone.ID}); err != nil {
			t.Fatal(err)
		}
		// The live chunk moves to view 3 keeping its replicas, whose slots stay
		// at view 1.
		cm := live.Chunks[0]
		commit(t, m, entry{SetView: &entrySetView{VDisk: live.ID, Index: 0, View: 3, Replicas: cm.Replicas}})
		var others []string // the servers outside the chunk's replica list
		for addr := range ss.slots {
			if !slices.ContainsFunc(cm.Replicas, func(r ReplicaInfo) bool { return r.Addr == addr }) {
				others = append(others, addr)
			}
		}
		sort.Strings(others)
		id, wm := blockstore.MakeChunkID(live.ID, 0), m.Snapshot().NextID
		rows := []struct {
			name string
			addr string
			id   blockstore.ChunkID
			view uint64
			kept bool
			upTo uint64 // the reaped slot's guard
		}{
			{"deleted vdisk at the watermark", others[0], blockstore.MakeChunkID(gone.ID, 0), 1, false, proto.AnyView},
			{"vdisk above the watermark", others[0], blockstore.MakeChunkID(wm+1, 0), 1, true, 0},
			{"stray below the recorded view", others[0], id, 2, false, 2},
			{"stray at the recorded view", others[1], id, 3, true, 0},
			{"stray above the recorded view", others[2], id, 4, true, 0},
			{"listed replica below the recorded view", cm.Replicas[1].Addr, id, 1, true, 0},
		}
		ss.mu.Lock()
		for _, r := range rows {
			ss.slots[r.addr][r.id] = proto.ChunkResult{View: r.view}
		}
		ss.mu.Unlock()
		var mu sync.Mutex
		guards := map[string]map[blockstore.ChunkID]uint64{} // delete entries sent, by server
		ss.answer = func(addr string, msg *proto.Message) *proto.Message {
			if entries, err := proto.DecodeChunks(msg.Payload); msg.Op == proto.OpDeleteChunk && err == nil {
				mu.Lock()
				defer mu.Unlock()
				for _, e := range entries {
					if guards[addr] == nil {
						guards[addr] = map[blockstore.ChunkID]uint64{}
					}
					guards[addr][e.Chunk] = e.UpTo
				}
			}
			return nil
		}

		reaped, err := m.Reconcile()
		if err != nil || reaped != 2 {
			t.Fatalf("the pass reaped %d slots (%v), want 2", reaped, err)
		}
		ss.mu.Lock()
		mu.Lock()
		for _, r := range rows {
			if kept := ss.has(r.addr, r.id); kept != r.kept {
				t.Errorf("%s: %v on %s kept %v, want %v", r.name, r.id, r.addr, kept, r.kept)
			}
			if upTo, sent := guards[r.addr][r.id]; !r.kept && (!sent || upTo != r.upTo) {
				t.Errorf("%s: delete entry sent %v at view %d, want one at %d", r.name, sent, upTo, r.upTo)
			}
		}
		mu.Unlock()
		ss.mu.Unlock()
		if n := ss.reg.Counter(MetricSlotsReaped).Load(); n != 2 {
			t.Errorf("%s = %d, want 2", MetricSlotsReaped, n)
		}

		// A clone whose one chunk starts with two cold extents on every replica.
		refs := []coldtier.ExtentRef{{Seg: 7, ChunkOff: 0, Len: util.MiB}, {Seg: 7, SegOff: util.MiB, ChunkOff: util.MiB, Len: util.MiB}}
		snapID := m.Snapshot().NextID + 1
		commit(t, m, entry{PutSnapshot: &entryPutSnapshot{NextID: snapID, Meta: SnapshotMeta{
			ID: snapID, Name: "gold", Size: util.ChunkSize, StripeGroup: 1, StripeUnit: defaultStripeUnit,
			Chunks: [][]coldtier.ExtentRef{refs},
		}}})
		clone, err := m.provision(VDiskMeta{Name: "thin"}, 0, 0, "gold")
		if err != nil {
			t.Fatal(err)
		}
		cloneID, replicas := blockstore.MakeChunkID(clone.ID, 0), clone.Chunks[0].Replicas
		coldRefs := func() int { return len(m.Snapshot().VDisks[clone.ID].Chunks[0].Cold) }
		ss.mu.Lock()
		for _, r := range replicas[:2] {
			ss.slots[r.Addr][cloneID] = proto.ChunkResult{View: 1} // drained
		}
		ss.mu.Unlock()
		pass := func(down string) {
			t.Helper()
			ss.net.Partition("master", down)
			defer ss.net.Heal("master", down)
			if _, err := m.Reconcile(); err != nil {
				t.Fatal(err)
			}
		}
		if pass(replicas[0].Addr); coldRefs() != len(refs) {
			t.Fatal("cold refs cleared while a replica still held cold extents")
		}
		ss.mu.Lock()
		ss.slots[replicas[2].Addr][cloneID] = proto.ChunkResult{View: 1}
		ss.mu.Unlock()
		if pass(replicas[2].Addr); coldRefs() != len(refs) {
			t.Fatal("cold refs cleared with a replica out of reach")
		}
		if pass(replicas[1].Addr); coldRefs() != len(refs) {
			t.Fatal("cold refs cleared with a replica out of reach: drained answers were added up across passes")
		}
		if _, err := m.Reconcile(); err != nil || coldRefs() != 0 {
			t.Fatalf("every replica answered drained in one pass (%v): %d cold refs still listed", err, coldRefs())
		}
	})
}

// TestReconcileDeposedMidPassReapsNothing: a server that answers the
// inventory with a newer epoch deposes the master mid-pass, which wipes its
// state. The pass must judge nothing then: against a wiped state every slot
// at or below the watermark would look like garbage, and the deletes would
// go out stamped with the epoch that deposed it.
func TestReconcileDeposedMidPassReapsNothing(t *testing.T) {
	clock.Test(t, func() {
		m, ss, cleanup := newSlotEnv(t, 3, 0, 5*time.Second)
		defer cleanup()
		if _, err := m.CreateVDisk(CreateVDiskReq{Name: "live", Size: 4 * util.ChunkSize}); err != nil {
			t.Fatal(err)
		}
		before := ss.total()
		ss.answer = func(addr string, msg *proto.Message) *proto.Message {
			if addr != "s0/ssd" || msg.Op != proto.OpGetVersion {
				return nil
			}
			r := msg.Reply(proto.StatusStaleEpoch)
			r.Epoch = 100
			return r
		}
		if _, err := m.Reconcile(); !errors.Is(err, util.ErrNotPrimary) {
			t.Fatalf("a pass deposed by its inventory returned %v, want ErrNotPrimary", err)
		}
		if n := ss.total(); n != before {
			t.Fatalf("a deposed pass deleted %d of %d slots", before-n, before)
		}
	})
}

// TestReconcileReapsOrphanSlot: a store slot of a deleted vdisk with no
// chunk state on its server — the state gone, the slot not — is answered
// by the inventory and judged garbage by rule 1, and its server drops it on
// the pass's delete instead of answering NotFound, so one pass reaps it. A
// delete guarded by a view (rule 2's) leaves such a slot: after a restart it
// may be a live replica the master has not re-attached yet.
func TestReconcileReapsOrphanSlot(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t, 3, true)
		defer cleanup()
		vd, err := e.m.CreateVDisk(CreateVDiskReq{Name: "gone", Size: util.ChunkSize})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.m.deleteVDisk(GetVDiskReq{ID: vd.ID}); err != nil {
			t.Fatal(err)
		}
		id, store := blockstore.MakeChunkID(vd.ID, 0), e.stores["m0/ssd"]
		if store.Has(id) {
			t.Fatal("the vdisk's delete left its slot")
		}
		if err := store.CreateSized(id, util.ChunkSize); err != nil {
			t.Fatal(err)
		}
		// A delete guarded by a view cannot judge a slot with no state: refused.
		guarded := [][]proto.ChunkEntry{{{Chunk: id, UpTo: 1}}}
		if n := e.m.reap(time.Second, []serverQueue{{addr: "m0/ssd"}}, guarded); n != 0 || !store.Has(id) {
			t.Fatalf("a guarded delete reaped %d slots, slot kept %v; want 0, true", n, store.Has(id))
		}
		if reaped, err := e.m.Reconcile(); err != nil || reaped != 1 {
			t.Errorf("the pass reaped %d slots (%v), want 1", reaped, err)
		}
		if store.Has(id) {
			t.Fatal("the orphan slot outlived a reconcile pass")
		}
	})
}
