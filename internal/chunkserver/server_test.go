package chunkserver

import (
	"bytes"
	"testing"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/journal"
	"ursa/internal/proto"
	"ursa/internal/simdisk"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// env wires one primary and two backups on a simnet.
type env struct {
	net     *transport.SimNet
	primary *Server
	backups []*Server
}

// close closes the env's servers.
func (e *env) close() {
	for _, s := range append([]*Server{e.primary}, e.backups...) {
		s.Close()
	}
}

func fastSSD() simdisk.SSDModel {
	return simdisk.SSDModel{
		Capacity: 2 * util.GiB, Parallelism: 32,
		ReadLatency: 2 * time.Microsecond, WriteLatency: 4 * time.Microsecond,
		ReadBandwidth: 20e9, WriteBandwidth: 12e9,
	}
}

func fastHDD() simdisk.HDDModel {
	return simdisk.HDDModel{
		Capacity: 4 * util.GiB, SeekMax: 400 * time.Microsecond,
		SeekSettle: 25 * time.Microsecond, RPM: 288000,
		Bandwidth: 6e9, TrackSkip: 512 * util.KiB,
	}
}

// newEnv starts a primary and two backups, and returns them with their close.
func newEnv(t *testing.T) (*env, func()) {
	t.Helper()
	clk := clock.Realtime
	net := transport.NewSimNet(clk, time.Microsecond)
	e := &env{net: net}

	mk := func(addr string, role Role) *Server {
		var store *blockstore.Store
		var jset *journal.Set
		if role == RolePrimary {
			store = blockstore.New(simdisk.NewSSD(fastSSD(), clk), 0)
		} else {
			hdd := simdisk.NewHDD(fastHDD(), clk)
			store = blockstore.New(hdd, util.AlignDown(hdd.Size()/2, util.ChunkSize))
			jset = journal.NewSet(clk, store, journal.DefaultConfig())
			ssd := simdisk.NewSSD(fastSSD(), clk)
			jset.AddSSDJournal(addr+"-j", ssd, 0, 64*util.MiB)
			jset.Start()
		}
		srv := New(Config{
			Addr: addr, Clock: clk,
			Dialer:      net.Dialer(addr, transport.NodeConfig{}),
			ReplTimeout: 50 * time.Millisecond,
		}, store, jset)
		l, err := net.Listen(addr, transport.NodeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		srv.Serve(l)
		return srv
	}
	e.primary = mk("p", RolePrimary)
	e.backups = []*Server{mk("b1", RoleBackup), mk("b2", RoleBackup)}
	return e, e.close
}

var testChunk = blockstore.MakeChunkID(1, 0)

// createChunk creates the chunk on all three servers.
func (e *env) createChunk(t *testing.T) {
	t.Helper()
	mk := func(s *Server, backups []string) {
		resp := s.Handle(CreateChunks(ChunkCreate{Chunk: testChunk, CreateChunkReq: CreateChunkReq{View: 1, Backups: backups}}))
		if resp.Status != proto.StatusOK {
			t.Fatalf("create on %s: %s", s.Addr(), resp.Status)
		}
	}
	mk(e.primary, []string{"b1", "b2"})
	mk(e.backups[0], nil)
	mk(e.backups[1], nil)
}

func write(s *Server, version uint64, off int64, data []byte) *proto.Message {
	return s.Handle(&proto.Message{
		Op: proto.OpWrite, Chunk: testChunk, Off: off,
		View: 1, Version: version, Payload: data,
	})
}

func TestWriteReplicatesAndBumpsVersions(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		e.createChunk(t)
		data := bytes.Repeat([]byte{0x42}, 4096)
		resp := write(e.primary, 0, 0, data)
		if resp.Status != proto.StatusOK || resp.Version != 1 {
			t.Fatalf("write resp = %+v", resp)
		}
		// All replicas at version 1.
		for _, s := range []*Server{e.primary, e.backups[0], e.backups[1]} {
			v := s.Handle(&proto.Message{Op: proto.OpGetVersion, Payload: proto.EncodeChunkIDs(testChunk)})
			if v.Version != 1 {
				t.Errorf("%s version = %d", s.Addr(), v.Version)
			}
		}
		// Backup data readable through the journal path.
		r := e.backups[0].Handle(&proto.Message{
			Op: proto.OpRead, Chunk: testChunk, Off: 0, Length: 4096, View: 1, Version: 1,
		})
		if r.Status != proto.StatusOK || !bytes.Equal(r.Payload, data) {
			t.Errorf("backup read = %s", r.Status)
		}
		bufpool.Put(r.Payload)
	})
}

func TestStaleViewRejected(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		e.createChunk(t)
		resp := e.primary.Handle(&proto.Message{
			Op: proto.OpWrite, Chunk: testChunk, View: 0, Version: 0,
			Payload: make([]byte, 512),
		})
		if resp.Status != proto.StatusStaleView {
			t.Fatalf("stale view write = %s", resp.Status)
		}
		if resp.View != 1 {
			t.Errorf("reply view = %d", resp.View)
		}
	})
}

func TestVersionOneShortSkipsLocalWrite(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		e.createChunk(t)
		d1 := bytes.Repeat([]byte{0x01}, 512)
		if resp := write(e.primary, 0, 0, d1); resp.Status != proto.StatusOK {
			t.Fatal(resp.Status)
		}
		// Retry with version 0 (one short of 1): primary must skip the local
		// write but still ack (§4.2.1); data stays at d1's value because the
		// duplicate carries the same payload in a real retry. To make the skip
		// observable, send different bytes: they must NOT be applied.
		d2 := bytes.Repeat([]byte{0x02}, 512)
		resp := write(e.primary, 0, 0, d2)
		if resp.Status != proto.StatusOK || resp.Version != 1 {
			t.Fatalf("retry resp = %+v", resp)
		}
		r := e.primary.Handle(&proto.Message{
			Op: proto.OpRead, Chunk: testChunk, Off: 0, Length: 512, View: 1, Version: 1,
		})
		if !bytes.Equal(r.Payload, d1) {
			t.Error("one-short retry overwrote committed data")
		}
		bufpool.Put(r.Payload)
	})
}

func TestAncientVersionRejected(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		e.createChunk(t)
		for v := uint64(0); v < 3; v++ {
			if resp := write(e.primary, v, 0, make([]byte, 512)); resp.Status != proto.StatusOK {
				t.Fatal(resp.Status)
			}
		}
		resp := write(e.primary, 0, 0, make([]byte, 512)) // 3 behind
		if resp.Status != proto.StatusStaleVersion {
			t.Fatalf("ancient version = %s", resp.Status)
		}
	})
}

func TestFutureVersionTimesOutAsBehind(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		e.createChunk(t)
		resp := write(e.primary, 5, 0, make([]byte, 512))
		if resp.Status != proto.StatusBehind {
			t.Fatalf("future version = %s", resp.Status)
		}
	})
}

func TestPipelinedVersionsApplyInOrder(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		e.createChunk(t)
		// Issue versions 1 and 0 concurrently (1 first): the server must hold
		// version 1 until version 0 applies.
		done := make(chan *proto.Message, 2)
		go func() { done <- write(e.primary, 1, 512, bytes.Repeat([]byte{0xb}, 512)) }()
		time.Sleep(2 * time.Millisecond)
		go func() { done <- write(e.primary, 0, 0, bytes.Repeat([]byte{0xa}, 512)) }()
		for i := 0; i < 2; i++ {
			if resp := <-done; resp.Status != proto.StatusOK {
				t.Fatalf("pipelined write = %s", resp.Status)
			}
		}
		v := e.primary.Handle(&proto.Message{Op: proto.OpGetVersion, Payload: proto.EncodeChunkIDs(testChunk)})
		if v.Version != 2 {
			t.Errorf("final version = %d", v.Version)
		}
	})
}

func TestJournalBypassBySize(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		e.createChunk(t)
		b := e.backups[0]
		// Small write → journal append.
		resp := b.Handle(&proto.Message{
			Op: proto.OpReplicate, Chunk: testChunk, Off: 0,
			View: 1, Version: 0, Payload: make([]byte, 4*util.KiB),
		})
		if resp.Status != proto.StatusOK {
			t.Fatal(resp.Status)
		}
		js := b.jset.JournalStats()
		if js[0].Appends != 1 {
			t.Errorf("small write did not journal: %+v", js)
		}
		// Large write (>64KB) → bypass.
		resp = b.Handle(&proto.Message{
			Op: proto.OpReplicate, Chunk: testChunk, Off: util.MiB,
			View: 1, Version: 1, Payload: make([]byte, 128*util.KiB),
		})
		if resp.Status != proto.StatusOK {
			t.Fatal(resp.Status)
		}
		if got := b.jset.JournalStats()[0].Appends; got != 1 {
			t.Errorf("large write journaled: appends = %d", got)
		}
	})
}

// TestIncrementalRepairFlow: a lagging replica of the fill's view told to
// fill from a source pulls only the writes it missed — when it holds the
// chunk at a nonzero version. One at version 0 may be a fresh slot whose
// zeros are not the chunk's, so it copies the whole chunk; the row logs what
// that costs in bytes moved.
func TestIncrementalRepairFlow(t *testing.T) {
	for _, row := range []struct {
		name            string
		took            uint64 // writes b2 took before it lagged
		repairs, clones int64
		moved           int64 // bytes the fill installed on b2
	}{
		{name: "laggard at version 1", took: 1, repairs: 1, moved: 2 * 512},
		{name: "laggard at version 0", took: 0, clones: 1, moved: util.ChunkSize},
	} {
		t.Run(row.name, func(t *testing.T) {
			clock.Test(t, func() {
				e, cleanup := newEnv(t)
				defer cleanup()
				e.createChunk(t)
				b1, b2 := e.backups[0], e.backups[1]
				var last []byte
				for v := uint64(0); v < 3; v++ {
					last = bytes.Repeat([]byte{byte(v + 1)}, 512)
					targets := []*Server{b1}
					if v < row.took {
						targets = append(targets, b2)
					}
					for _, b := range targets {
						resp := b.Handle(&proto.Message{
							Op: proto.OpReplicate, Chunk: testChunk, Off: int64(v) * 512,
							View: 1, Version: v, Payload: last,
						})
						if resp.Status != proto.StatusOK {
							t.Fatal(resp.Status)
						}
					}
				}
				before := b2.Stats().BytesWritten
				resp := b2.Handle(rebuildMsg(proto.OpFill, 1, 3, FillReq{Source: "b1", View: 1}))
				if resp.Status != proto.StatusOK || resp.Version != 3 {
					t.Fatalf("repair = %+v", resp)
				}
				got := b2.Stats()
				if got.Repairs != row.repairs || got.Clones != row.clones {
					t.Errorf("the fill counted %d repairs and %d clones, want %d and %d", got.Repairs, got.Clones, row.repairs, row.clones)
				}
				moved := got.BytesWritten - before
				t.Logf("%s: %d bytes moved", row.name, moved)
				if moved != row.moved {
					t.Errorf("the fill moved %d bytes, want %d", moved, row.moved)
				}
				// b2 now serves all repaired data.
				r := b2.Handle(&proto.Message{
					Op: proto.OpRead, Chunk: testChunk, Off: 1024, Length: 512, View: 1, Version: 3,
				})
				if r.Status != proto.StatusOK || !bytes.Equal(r.Payload, last) {
					t.Error("repaired data mismatch")
				}
				bufpool.Put(r.Payload)
			})
		})
	}
}

func TestRepairFallsBackToClone(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		e.createChunk(t)
		b1, b2 := e.backups[0], e.backups[1]
		// A tiny journal-lite on b1: its history evicts after two writes, not
		// after liteCap of them.
		st := b1.chunk(testChunk)
		st.mu.Lock()
		st.lite = journal.NewLite(2)
		st.mu.Unlock()

		for v := uint64(0); v < 6; v++ { // overflow the 2-entry lite; b2 takes only the first
			targets := []*Server{b1}
			if v == 0 {
				targets = append(targets, b2)
			}
			for _, b := range targets {
				resp := b.Handle(&proto.Message{
					Op: proto.OpReplicate, Chunk: testChunk, Off: int64(v) * 4096,
					View: 1, Version: v, Payload: bytes.Repeat([]byte{byte(v + 1)}, 4096),
				})
				if resp.Status != proto.StatusOK {
					t.Fatal(resp.Status)
				}
			}
		}
		// RepairSince(1) on b1 must signal fallback.
		resp := b1.Handle(&proto.Message{Op: proto.OpRepairSince, Chunk: testChunk, View: 1, Version: 1})
		if resp.Status != proto.StatusFallback {
			t.Fatalf("RepairSince after eviction = %s", resp.Status)
		}
		// A fill of b2 tries incremental repair and transparently falls back to
		// a whole copy.
		resp = b2.Handle(rebuildMsg(proto.OpFill, 1, 6, FillReq{Source: "b1", View: 1}))
		if resp.Status != proto.StatusOK || resp.Version != 6 {
			t.Fatalf("fallback clone = %+v", resp)
		}
		if got := b2.Stats(); got.Clones != 1 {
			t.Errorf("the fill counted %d clones, want the fallback's one", got.Clones)
		}
		r := b2.Handle(&proto.Message{
			Op: proto.OpRead, Chunk: testChunk, Off: 5 * 4096, Length: 4096, View: 1, Version: 6,
		})
		if r.Status != proto.StatusOK || r.Payload[0] != 6 {
			t.Error("cloned data mismatch")
		}
		bufpool.Put(r.Payload)
	})
}

func TestCloneTransfersJournalAndDisk(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		e.createChunk(t)
		b1 := e.backups[0]
		// One journaled small write and one bypassed large write on b1.
		small := bytes.Repeat([]byte{0xaa}, 4096)
		large := bytes.Repeat([]byte{0xbb}, 128*util.KiB)
		b1.Handle(&proto.Message{Op: proto.OpReplicate, Chunk: testChunk, Off: 0,
			View: 1, Version: 0, Payload: small})
		b1.Handle(&proto.Message{Op: proto.OpReplicate, Chunk: testChunk, Off: util.MiB,
			View: 1, Version: 1, Payload: large})

		// Fill the primary (its replica is empty, so it copies).
		resp := e.primary.Handle(rebuildMsg(proto.OpFill, 2, 2, FillReq{Source: "b1", View: 1}))
		if resp.Status != proto.StatusOK || resp.Version != 2 {
			t.Fatalf("clone = %+v", resp)
		}
		for _, chk := range []struct {
			off  int64
			want []byte
		}{{0, small}, {util.MiB, large}} {
			r := e.primary.Handle(&proto.Message{
				Op: proto.OpRead, Chunk: testChunk, Off: chk.off,
				Length: uint32(len(chk.want)), View: 2, Version: 2,
			})
			if r.Status != proto.StatusOK || !bytes.Equal(r.Payload, chk.want) {
				t.Errorf("clone missed data at %d", chk.off)
			}
			bufpool.Put(r.Payload)
		}
	})
}

func TestSetViewRules(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		e.createChunk(t)
		resp := e.primary.Handle(&proto.Message{Op: proto.OpSetView, Chunk: testChunk, View: 2})
		if resp.Status != proto.StatusOK || resp.View != 2 {
			t.Fatalf("set view = %+v", resp)
		}
		// Regressing the view is rejected.
		resp = e.primary.Handle(&proto.Message{Op: proto.OpSetView, Chunk: testChunk, View: 1})
		if resp.Status != proto.StatusStaleView {
			t.Fatalf("view regression = %s", resp.Status)
		}
	})
}

// TestSetViewRefusesUndecodablePayload: a view change whose backup list
// cannot be decoded is refused, and the chunk keeps both its view and the
// backups it ships to — the master must not count the view as installed.
func TestSetViewRefusesUndecodablePayload(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		e.createChunk(t)
		resp := e.primary.Handle(&proto.Message{Op: proto.OpSetView, Chunk: testChunk, View: 2, Payload: []byte(`{"backups":`)})
		if resp.Status != proto.StatusError {
			t.Fatalf("set view with a truncated payload = %s, want error", resp.Status)
		}
		if _, view := versionView(t, e.primary); view != 1 {
			t.Errorf("refused set view left view %d, want 1", view)
		}
		cs := e.primary.chunk(testChunk)
		cs.mu.Lock()
		backups := cs.backups
		cs.mu.Unlock()
		if len(backups) != 2 || backups[0] != "b1" || backups[1] != "b2" {
			t.Errorf("refused set view left backups %q, want [b1 b2]", backups)
		}
	})
}

func TestReadStatusRules(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		e.createChunk(t)
		// Reading ahead of the replica's state: StatusBehind.
		resp := e.primary.Handle(&proto.Message{
			Op: proto.OpRead, Chunk: testChunk, Off: 0, Length: 512, View: 1, Version: 7,
		})
		if resp.Status != proto.StatusBehind {
			t.Fatalf("read-ahead = %s", resp.Status)
		}
		// Unknown chunk.
		resp = e.primary.Handle(&proto.Message{
			Op: proto.OpRead, Chunk: blockstore.MakeChunkID(9, 9), Length: 512, View: 1,
		})
		if resp.Status != proto.StatusNotFound {
			t.Fatalf("unknown chunk = %s", resp.Status)
		}
	})
}

func TestDeleteChunk(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		e.createChunk(t)
		resp := e.primary.Handle(&proto.Message{Op: proto.OpDeleteChunk, Payload: proto.EncodeChunkIDs(testChunk)})
		if resp.Status != proto.StatusOK {
			t.Fatal(resp.Status)
		}
		resp = e.primary.Handle(&proto.Message{Op: proto.OpDeleteChunk, Payload: proto.EncodeChunkIDs(testChunk)})
		if resp.Status != proto.StatusNotFound {
			t.Fatalf("double delete = %s", resp.Status)
		}
	})
}

func TestMajorityCommitWithDeadBackup(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		e.createChunk(t)
		e.net.Crash("b2")
		// Write must still commit: primary + b1 form a majority (§4.2.1).
		resp := write(e.primary, 0, 0, make([]byte, 4096))
		if resp.Status != proto.StatusOK {
			t.Fatalf("majority commit failed: %s", resp.Status)
		}
		if e.primary.degradedCommits.Load() == 0 {
			t.Error("degraded commit not recorded")
		}
	})
}

func TestNoQuorumFails(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		e.createChunk(t)
		e.net.Crash("b1")
		e.net.Crash("b2")
		resp := write(e.primary, 0, 0, make([]byte, 4096))
		if resp.Status == proto.StatusOK {
			t.Fatal("write committed without a quorum")
		}
		if e.primary.noQuorums.Load() == 0 {
			t.Error("no-quorum not recorded")
		}
	})
}

func TestUpgradeIdempotent(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		e.createChunk(t)
		e.primary.Upgrade()
		e.primary.Upgrade()
		if got := e.primary.Stats().UpgradeGen; got != 2 {
			t.Errorf("upgrade gen = %d", got)
		}
		// Server still serves after upgrades.
		if resp := write(e.primary, 0, 0, make([]byte, 512)); resp.Status != proto.StatusOK {
			t.Fatalf("write after upgrade = %s", resp.Status)
		}
	})
}

// TestUpgradeWaitsForWriteInFlight: an upgrade called while a write is
// parked on a stalled device returns only once that write's handler has —
// the write committed — and not under it.
func TestUpgradeWaitsForWriteInFlight(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newRebuildEnv(t)
		defer cleanup()
		fi := simdisk.NewFaultInjector(simdisk.NewSSD(fastSSD(), clock.Realtime), clock.Realtime)
		p := e.start("p", false, fi, time.Second)
		mustCreate(t, p, CreateChunkReq{View: 1})
		fi.Stall(100 * time.Millisecond)
		wrote := make(chan proto.Status, 1)
		go func() { wrote <- apply(p, proto.OpReplicate, 0, 0, make([]byte, 4*util.KiB)) }()
		waitFor(t, "the write's admission", func() bool { return pendingLen(p) == 1 })
		p.Upgrade()
		if ver, _ := versionView(t, p); ver != 1 || pendingLen(p) != 0 {
			t.Errorf("Upgrade returned at version %d with %d writes pending, want after the write committed", ver, pendingLen(p))
		}
		if st := <-wrote; st != proto.StatusOK {
			t.Errorf("write across the upgrade = %s", st)
		}
		if got := p.Stats().UpgradeGen; got != 1 {
			t.Errorf("upgrade gen = %d, want 1", got)
		}
	})
}

func TestRepairCodecRoundTrip(t *testing.T) {
	clock.Test(t, func() {
		mods := []repairMod{
			{Mod: journal.Mod{Version: 1, Off: 0, Len: 4}, Data: []byte{1, 2, 3, 4}},
			{Mod: journal.Mod{Version: 2, Off: 512, Len: 2}, Data: []byte{9, 8}},
		}
		got, err := decodeRepair(encodeRepair(mods))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0].Version != 1 || got[1].Off != 512 ||
			!bytes.Equal(got[0].Data, mods[0].Data) {
			t.Errorf("round trip = %+v", got)
		}
		// Truncated payloads fail cleanly.
		for cut := 1; cut < 10; cut++ {
			b := encodeRepair(mods)
			if _, err := decodeRepair(b[:len(b)-cut]); err == nil {
				t.Errorf("truncation by %d accepted", cut)
			}
		}
		if _, err := decodeRepair(nil); err == nil {
			t.Error("nil payload accepted")
		}
	})
}

func TestValidRange(t *testing.T) {
	clock.Test(t, func() {
		cases := []struct {
			off int64
			n   int
			ok  bool
		}{
			{0, 512, true},
			{512, util.ChunkSize - 512, true},
			{0, 0, false},
			{100, 512, false},
			{0, 100, false},
			{util.ChunkSize, 512, false},
			{-512, 512, false},
		}
		for _, c := range cases {
			err := validRangeIn(c.off, c.n, util.ChunkSize)
			if (err == nil) != c.ok {
				t.Errorf("validRangeIn(%d,%d) err=%v, want ok=%v", c.off, c.n, err, c.ok)
			}
		}
	})
}
