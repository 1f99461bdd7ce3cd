package chunkserver

import (
	"sync"
	"testing"

	"ursa/internal/blockstore"
	"ursa/internal/clock"
	"ursa/internal/coldtier"
	"ursa/internal/proto"
	"ursa/internal/util"
)

func results(t *testing.T, resp *proto.Message) []proto.ChunkResult {
	t.Helper()
	res, err := proto.DecodeResults(resp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCreateBatchRunsInOrderAndStopsAtFirstFailure: a create message's
// entries get consecutive slots in list order; the entry the store has no
// room for ends the message — the entries after it were never made — and a
// second send of the same message is answered StatusExists entry by entry.
func TestCreateBatchRunsInOrderAndStopsAtFirstFailure(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		room := int(fastSSD().Capacity / util.ChunkSize) // the primary's store holds this many full slots
		entries := make([]ChunkCreate, room+8)
		for i := range entries {
			// Descending indices: slot order must follow the list, not the IDs.
			entries[i] = ChunkCreate{Chunk: blockstore.MakeChunkID(7, uint32(len(entries)-i)), CreateChunkReq: CreateChunkReq{View: 1}}
		}
		resp := e.primary.Handle(CreateChunks(entries...))
		got := results(t, resp)
		if resp.Status != proto.StatusQuota || len(got) != room+1 {
			t.Fatalf("create of %d chunks in room for %d: %s with %d results, want quota with %d", len(entries), room, resp.Status, len(got), room+1)
		}
		for i, e2 := range entries {
			made := e.primary.store.Has(e2.Chunk)
			switch {
			case i < room && (got[i].Status != proto.StatusOK || !made || e.primary.store.SlotOffset(e2.Chunk) != int64(i)*util.ChunkSize):
				t.Fatalf("entry %d: %s, slot made %v at %d", i, got[i].Status, made, e.primary.store.SlotOffset(e2.Chunk))
			case i >= room && (made || e.primary.chunk(e2.Chunk) != nil):
				t.Fatalf("entry %d, at or after the one refused, was made", i)
			}
		}
		if got[room].Status != proto.StatusQuota {
			t.Fatalf("the entry past the store's room: %s", got[room].Status)
		}

		resp = e.primary.Handle(CreateChunks(entries[:room]...))
		if got = results(t, resp); resp.Status != proto.StatusExists || len(got) != room {
			t.Fatalf("re-create: %s with %d results", resp.Status, len(got))
		}
		for i, r := range got {
			if r.Status != proto.StatusExists {
				t.Fatalf("re-created entry %d: %s", i, r.Status)
			}
		}

		for _, bad := range []*proto.Message{
			{Op: proto.OpCreateChunk},
			{Op: proto.OpCreateChunk, Payload: []byte("[]")},
			{Op: proto.OpCreateChunk, Payload: []byte(`{"chunk":1}`)},
			CreateChunks(make([]ChunkCreate, proto.MaxBatch+1)...),
		} {
			if resp := e.primary.Handle(bad); resp.Status != proto.StatusError || len(resp.Payload) != 0 {
				t.Fatalf("malformed create (%d payload bytes): %s", len(bad.Payload), resp.Status)
			}
		}
	})
}

// TestProbeAndDeleteBatchesAnswerPerEntry: a probe lists the version and view
// of every chunk asked about, and a delete the fate of each, in list order.
func TestProbeAndDeleteBatchesAnswerPerEntry(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		e.createChunk(t) // testChunk, view 1
		other, missing := blockstore.MakeChunkID(1, 1), blockstore.MakeChunkID(1, 9)
		if resp := e.primary.Handle(CreateChunks(ChunkCreate{Chunk: other, CreateChunkReq: CreateChunkReq{View: 4}})); resp.Status != proto.StatusOK {
			t.Fatal(resp.Status)
		}
		for v := uint64(0); v < 11; v++ { // a create starts at version 0; writes move it
			w := &proto.Message{Op: proto.OpReplicate, Chunk: other, View: 4, Version: v, Payload: make([]byte, util.SectorSize)}
			if resp := e.primary.Handle(w); resp.Status != proto.StatusOK || resp.Version != v+1 {
				t.Fatalf("write at version %d: %s at %d", v, resp.Status, resp.Version)
			}
		}
		e.primary.chunk(testChunk).suspect.Store(true)

		resp := e.primary.Handle(&proto.Message{Op: proto.OpGetVersion, Payload: proto.EncodeChunkIDs(other, missing, testChunk, other)})
		want := []proto.ChunkResult{
			{Status: proto.StatusOK, Version: 11, View: 4, Chunk: other}, {Status: proto.StatusNotFound, Chunk: missing},
			{Status: proto.StatusError, Chunk: testChunk}, {Status: proto.StatusOK, Version: 11, View: 4, Chunk: other},
		}
		got := results(t, resp)
		if len(got) != len(want) {
			t.Fatalf("probe of %d chunks answered %d", len(want), len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("probe entry %d = %+v, want %+v", i, got[i], want[i])
			}
		}
		if resp.Status != proto.StatusOK || resp.Version != 11 || resp.View != 4 {
			t.Errorf("probe header %s v%d view %d, want the last entry's", resp.Status, resp.Version, resp.View)
		}

		resp = e.primary.Handle(&proto.Message{Op: proto.OpDeleteChunk, Payload: proto.EncodeChunkIDs(other, missing, testChunk)})
		got = results(t, resp)
		if len(got) != 3 || got[0].Status != proto.StatusOK || got[1].Status != proto.StatusNotFound || got[2].Status != proto.StatusOK {
			t.Fatalf("delete batch answered %+v", got)
		}
		if e.primary.store.Len() != 0 {
			t.Fatalf("%d slots left after the delete", e.primary.store.Len())
		}
		for _, op := range []proto.Op{proto.OpGetVersion, proto.OpDeleteChunk} {
			for _, payload := range [][]byte{nil, make([]byte, 7), make([]byte, 16*(proto.MaxBatch+1))} {
				if payload == nil && op == proto.OpGetVersion {
					continue // the inventory: TestInventoryListsEverySlot
				}
				if resp := e.primary.Handle(&proto.Message{Op: op, Payload: payload}); resp.Status != proto.StatusError {
					t.Fatalf("op %d with a %d-byte list: %s", op, len(payload), resp.Status)
				}
			}
		}
	})
}

// TestInventoryListsEverySlot: an OpGetVersion that lists no chunk is
// answered for every slot the store holds, each answer naming its chunk and
// whether its cold table is still to drain; an empty store answers OK with
// no results.
func TestInventoryListsEverySlot(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		inventory := func() map[blockstore.ChunkID]proto.ChunkResult {
			t.Helper()
			resp := e.primary.Handle(&proto.Message{Op: proto.OpGetVersion})
			if resp.Status != proto.StatusOK {
				t.Fatalf("inventory: %s", resp.Status)
			}
			out := map[blockstore.ChunkID]proto.ChunkResult{}
			for _, r := range results(t, resp) {
				out[r.Chunk] = r
			}
			return out
		}
		if got := inventory(); len(got) != 0 {
			t.Fatalf("an empty store's inventory: %+v", got)
		}
		e.createChunk(t) // testChunk, view 1
		cold := blockstore.MakeChunkID(2, 3)
		req := CreateChunkReq{View: 5, Cold: []coldtier.ExtentRef{{Seg: 1, Len: util.MiB}}, ObjAddr: "obj"}
		if resp := e.primary.Handle(CreateChunks(ChunkCreate{Chunk: cold, CreateChunkReq: req})); resp.Status != proto.StatusOK {
			t.Fatal(resp.Status)
		}
		got := inventory()
		want := map[blockstore.ChunkID]proto.ChunkResult{
			testChunk: {Status: proto.StatusOK, View: 1, Chunk: testChunk},
			cold:      {Status: proto.StatusOK, View: 5, Chunk: cold, Cold: true},
		}
		if len(got) != len(want) || got[testChunk] != want[testChunk] || got[cold] != want[cold] {
			t.Fatalf("inventory %+v, want %+v", got, want)
		}
	})
}

// TestGuardedDeleteKeepsSlotMadeAfresh: a delete entry guarded by the view
// an inventory saw refuses the slot once a create has remade it at a later
// view between the inventory and the delete — the replacement a view change
// put there — and drops it when it is still at the judged view.
func TestGuardedDeleteKeepsSlotMadeAfresh(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		e.createChunk(t) // testChunk, view 1: an evicted replica's slot, say
		seen := results(t, e.primary.Handle(&proto.Message{Op: proto.OpGetVersion}))
		if len(seen) != 1 || seen[0].View != 1 {
			t.Fatalf("inventory %+v", seen)
		}
		// Picked as a replacement at view 3 before the delete arrives.
		if resp := e.primary.Handle(CreateChunks(ChunkCreate{Chunk: testChunk, CreateChunkReq: CreateChunkReq{View: 3}})); resp.Status != proto.StatusOK {
			t.Fatal(resp.Status)
		}
		guarded := &proto.Message{Op: proto.OpDeleteChunk, Payload: proto.EncodeChunks(proto.ChunkEntry{Chunk: testChunk, UpTo: seen[0].View})}
		if resp := e.primary.Handle(guarded); resp.Status != proto.StatusStaleView {
			t.Fatalf("guarded delete of a slot remade at view 3: %s", resp.Status)
		}
		if cs := e.primary.chunk(testChunk); cs == nil || !e.primary.store.Has(testChunk) {
			t.Fatal("the remade slot is gone")
		}
		// Still at the judged view: it goes.
		if resp := e.backups[0].Handle(guarded); resp.Status != proto.StatusOK || e.backups[0].store.Has(testChunk) {
			t.Fatalf("guarded delete at the judged view: %s, slot kept %v", resp.Status, e.backups[0].store.Has(testChunk))
		}
	})
}

// TestCreateDeleteRaceKeepsStateWithSlot: a delete of a chunk and a create of
// the same chunk meet on one server — a reconcile pass reaping a stray while
// a recovery places a replacement there. Whichever wins, the server
// publishes the chunk's state exactly when its store holds the chunk's slot.
func TestCreateDeleteRaceKeepsStateWithSlot(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		s := e.backups[0]
		create := func() *proto.Message {
			return s.Handle(CreateChunks(ChunkCreate{Chunk: testChunk, CreateChunkReq: CreateChunkReq{View: 1}}))
		}
		del := func() *proto.Message {
			return s.Handle(&proto.Message{Op: proto.OpDeleteChunk, Payload: proto.EncodeChunks(proto.ChunkEntry{Chunk: testChunk, UpTo: proto.AnyView})})
		}
		for i := 0; i < 500; i++ {
			if resp := create(); resp.Status != proto.StatusOK && resp.Status != proto.StatusExists {
				t.Fatalf("round %d: create: %s", i, resp.Status)
			}
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); del() }()
			go func() { defer wg.Done(); create() }()
			wg.Wait()
			if state, slot := s.chunk(testChunk) != nil, s.store.Has(testChunk); state != slot {
				t.Fatalf("round %d: state published %v, slot held %v", i, state, slot)
			}
		}
	})
}
