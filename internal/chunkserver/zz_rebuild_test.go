package chunkserver

// The file name sorts last on purpose. These tests fill whole 16 and 64 MiB
// slots, and the package's older tests run with 50 ms commit windows: under
// the race detector, on a small host, a test that runs in the garbage
// collector's shadow of these times out. Go runs a package's tests in file
// order, so the heavy ones go last.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/journal"
	"ursa/internal/proto"
	"ursa/internal/redundancy"
	"ursa/internal/simdisk"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// hookDisk runs a callback before the read, or the write, that makes its
// armed countdown hit zero — the tests' way to land an event at an exact
// point of a transfer.
type hookDisk struct {
	simdisk.Disk
	countdown atomic.Int64 // reads until the hook fires; <= 0 is disarmed
	writes    atomic.Int64 // writes until the hook fires; <= 0 is disarmed
	hook      func()
}

func (d *hookDisk) ReadAt(p []byte, off int64) error {
	if d.countdown.Add(-1) == 0 {
		d.hook()
	}
	return d.Disk.ReadAt(p, off)
}

func (d *hookDisk) WriteAt(p []byte, off int64) error {
	if d.writes.Add(-1) == 0 {
		d.hook()
	}
	return d.Disk.WriteAt(p, off)
}

// rebuildEnv is a simnet on which tests start chunk servers one by one.
type rebuildEnv struct {
	t       *testing.T
	net     *transport.SimNet
	servers []*Server
}

// leases returns the buffer-pool lease count with the env's journals
// drained, so background replay does not blur a before/after comparison.
func (e *rebuildEnv) leases() int64 {
	for _, s := range e.servers {
		if s.jset != nil {
			s.jset.Drain()
		}
	}
	return bufpool.InUse()
}

// newRebuildEnv returns the env and its close, which closes every server
// start started.
func newRebuildEnv(t *testing.T) (*rebuildEnv, func()) {
	e := &rebuildEnv{t: t, net: transport.NewSimNet(clock.Realtime, time.Microsecond)}
	return e, func() {
		for _, s := range e.servers {
			s.Close()
		}
	}
}

// start runs a server at addr over disk (nil: a fresh fast SSD), with a
// journal set in front when backup is set.
func (e *rebuildEnv) start(addr string, backup bool, disk simdisk.Disk, replTimeout time.Duration) *Server {
	e.t.Helper()
	clk := clock.Realtime
	if disk == nil {
		disk = simdisk.NewSSD(fastSSD(), clk)
	}
	store := blockstore.New(disk, 0)
	var jset *journal.Set
	if backup {
		jset = journal.NewSet(clk, store, journal.DefaultConfig())
		jset.AddSSDJournal(addr+"-j", simdisk.NewSSD(fastSSD(), clk), 0, 64*util.MiB)
		jset.Start()
	}
	srv := New(Config{
		Addr: addr, Clock: clk,
		Dialer:      e.net.Dialer(addr, transport.NodeConfig{}),
		ReplTimeout: replTimeout,
	}, store, jset)
	l, err := e.net.Listen(addr, transport.NodeConfig{})
	if err != nil {
		e.t.Fatal(err)
	}
	srv.Serve(l)
	e.servers = append(e.servers, srv)
	return srv
}

func mustCreate(t *testing.T, s *Server, req CreateChunkReq) {
	t.Helper()
	resp := s.Handle(CreateChunks(ChunkCreate{Chunk: testChunk, CreateChunkReq: req}))
	if resp.Status != proto.StatusOK {
		t.Fatalf("create on %s: %s", s.Addr(), resp.Status)
	}
}

// apply sends one versioned write and returns the reply status.
func apply(s *Server, op proto.Op, version uint64, off int64, data []byte) proto.Status {
	return s.Handle(&proto.Message{
		Op: op, Chunk: testChunk, Off: off, View: 1, Version: version, Payload: data,
	}).Status
}

func rebuildMsg(op proto.Op, view, version uint64, body any) *proto.Message {
	payload, _ := json.Marshal(body)
	return &proto.Message{Op: op, Chunk: testChunk, View: view, Version: version, Payload: payload}
}

// slot returns the replica's whole local slot, read as a fill reads it.
func slot(t *testing.T, s *Server) []byte {
	t.Helper()
	cs := s.chunk(testChunk)
	span := cs.span()
	cs.mu.Lock()
	view := cs.view
	cs.mu.Unlock()
	out := make([]byte, 0, span)
	for off := int64(0); off < span; off += cloneFetchSize {
		r := s.Handle(&proto.Message{Op: proto.OpRead, Chunk: testChunk, Off: off, Length: cloneFetchSize, View: view})
		if r.Status != proto.StatusOK {
			t.Fatalf("fetch %s@%d: %s", s.Addr(), off, r.Status)
		}
		out = append(out, r.Payload...)
		bufpool.Put(r.Payload)
	}
	return out
}

func versionView(t *testing.T, s *Server) (version, view uint64) {
	t.Helper()
	r := s.Handle(&proto.Message{Op: proto.OpGetVersion, Payload: proto.EncodeChunkIDs(testChunk)})
	if r.Status != proto.StatusOK {
		t.Fatalf("get version on %s: %s", s.Addr(), r.Status)
	}
	return r.Version, r.View
}

func pendingLen(s *Server) int {
	cs := s.chunk(testChunk)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return len(cs.pending)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestRebuildRacesStalledApply is defect (1): a write admitted before a
// rebuild is still on its way to a stalled device when the rebuild installs
// the source's newer bytes over the same extent and adopts the source's
// version. Without the engine's drain the old apply lands afterwards, and
// the replica serves the older bytes at the newer version under a matching
// checksum. Both mirror fill methods must wait the apply out: the replica
// holds the chunk at version 1, so a fill repairs it incrementally — or,
// once it is suspect, copies the whole chunk. Every buffer either path
// leases goes back to the pool.
func TestRebuildRacesStalledApply(t *testing.T) {
	lead := bytes.Repeat([]byte{0x10}, 4*util.KiB)
	older := bytes.Repeat([]byte{0x11}, 4*util.KiB)
	newer := bytes.Repeat([]byte{0x22}, 4*util.KiB)
	for _, path := range []struct {
		name    string
		suspect bool
	}{{"clone", true}, {"incremental repair", false}} {
		t.Run(path.name, func(t *testing.T) {
			clock.Test(t, func() {
				e, cleanup := newRebuildEnv(t)
				defer cleanup()
				leased := bufpool.InUse()
				src := e.start("src", false, nil, 50*time.Millisecond)
				fi := simdisk.NewFaultInjector(simdisk.NewSSD(fastSSD(), clock.Realtime), clock.Realtime)
				dst := e.start("dst", false, fi, 50*time.Millisecond)
				mustCreate(t, src, CreateChunkReq{View: 1})
				mustCreate(t, dst, CreateChunkReq{View: 1})
				// The source holds a lead write elsewhere and both writes of the
				// extent: version 3, newer bytes.
				for v, w := range []struct {
					off  int64
					data []byte
				}{{64 * util.KiB, lead}, {0, older}, {0, newer}} {
					if st := apply(src, proto.OpReplicate, uint64(v), w.off, w.data); st != proto.StatusOK {
						t.Fatalf("source write %d: %s", v, st)
					}
				}
				if st := apply(dst, proto.OpReplicate, 0, 64*util.KiB, lead); st != proto.StatusOK {
					t.Fatalf("destination lead write: %s", st)
				}
				// The destination admits the second write; its device apply stalls.
				fi.Stall(150 * time.Millisecond)
				stalled := make(chan proto.Status, 1)
				go func() { stalled <- apply(dst, proto.OpReplicate, 1, 0, older) }()
				waitFor(t, "the stalled write's admission", func() bool { return pendingLen(dst) == 1 })
				fi.Heal() // later device ops pass; the stalled one is still asleep
				dst.chunk(testChunk).suspect.Store(path.suspect)

				resp := dst.Handle(rebuildMsg(proto.OpFill, 1, 3, FillReq{Source: "src", View: 1}))
				if resp.Status != proto.StatusOK || resp.Version != 3 {
					t.Fatalf("%s = %s at version %d, want ok at 3", path.name, resp.Status, resp.Version)
				}
				if st := <-stalled; st != proto.StatusOK {
					t.Fatalf("stalled write = %s", st)
				}
				clones, repairs := int64(0), int64(1)
				if path.suspect {
					clones, repairs = 1, 0
				}
				if got := dst.Stats(); got.Clones != clones || got.Repairs != repairs {
					t.Errorf("fill counted %d clones and %d repairs, want %d and %d", got.Clones, got.Repairs, clones, repairs)
				}
				r := dst.Handle(&proto.Message{
					Op: proto.OpRead, Chunk: testChunk, Off: 0, Length: uint32(len(newer)), View: 1, Version: 3,
				})
				if r.Status != proto.StatusOK {
					t.Fatalf("read-back: %s", r.Status)
				}
				if !bytes.Equal(r.Payload, newer) {
					t.Fatalf("replica at version %d serves %#x.., want the source's %#x..",
						r.Version, r.Payload[0], newer[0])
				}
				bufpool.Put(r.Payload)
				waitFor(t, "every lease back in the pool", func() bool { return e.leases() == leased })
			})
		})
	}
}

// rsPair builds the smallest RS rebuild fixture: a primary holding the full
// chunk (no holders wired, so its writes do not fan out) and one segment-0
// holder whose device sits behind a fault injector, started in e.
func rsPair(t *testing.T, e *rebuildEnv, spec redundancy.Spec, replTimeout time.Duration) (primary, holder *Server, fi *simdisk.FaultInjector) {
	t.Helper()
	primary = e.start("p", false, nil, replTimeout)
	fi = simdisk.NewFaultInjector(simdisk.NewSSD(fastSSD(), clock.Realtime), clock.Realtime)
	holder = e.start("h", false, fi, replTimeout)
	mustCreate(t, primary, CreateChunkReq{View: 1, Redundancy: spec})
	mustCreate(t, holder, CreateChunkReq{View: 1, Redundancy: spec, Holder: true, Seg: 0})
	return primary, holder, fi
}

// TestRebuildAfterFailedApply is defect (2): a failed apply leaves its
// entry in the pending table by design, for the sender's retry to re-claim.
// A rebuild must not wait for it — nothing is in flight and adoption
// supersedes it — yet the old drain waited for an empty table, burned its
// whole 10×ReplTimeout window and failed.
func TestRebuildAfterFailedApply(t *testing.T) {
	clock.Test(t, func() {
		// Generous, so that the 16 MiB transfer itself fits even under the race
		// detector; the old drain burned ten of these.
		const replTimeout = 1500 * time.Millisecond
		e, cleanup := newRebuildEnv(t)
		defer cleanup()
		primary, holder, fi := rsPair(t, e, redundancy.Spec{Kind: redundancy.KindRS, N: 4, M: 2}, replTimeout)
		for v := uint64(0); v < 2; v++ {
			data := bytes.Repeat([]byte{byte(0x31 + v)}, 4*util.KiB)
			if st := apply(primary, proto.OpReplicate, v, int64(v)*8*util.KiB, data); st != proto.StatusOK {
				t.Fatalf("primary write %d: %s", v, st)
			}
		}
		fi.FailWrites(nil)
		if st := apply(holder, proto.OpReplicate, 0, 0, make([]byte, 128*util.KiB)); st != proto.StatusError {
			t.Fatalf("write on a failing device = %s, want error", st)
		}
		fi.Heal()
		if n := pendingLen(holder); n != 1 {
			t.Fatalf("pending after the failed apply = %d, want the failed entry", n)
		}

		start := time.Now()
		resp := holder.Handle(rebuildMsg(proto.OpFill, 1, 0, FillReq{Source: "p", View: 1}))
		if elapsed := time.Since(start); resp.Status != proto.StatusOK || elapsed >= replTimeout {
			t.Fatalf("rebuild = %s after %v, want ok well inside ReplTimeout %v", resp.Status, elapsed, replTimeout)
		}
		if resp.Version != 2 {
			t.Errorf("rebuilt replica at version %d, want the primary's 2", resp.Version)
		}
		if n := pendingLen(holder); n != 0 {
			t.Errorf("pending after the rebuild = %d, want 0", n)
		}
		if !bytes.Equal(slot(t, holder), slot(t, primary)[:len(slot(t, holder))]) {
			t.Error("rebuilt segment differs from the primary's")
		}
	})
}

// TestRebuildDemotesAppliedSuccessors covers the other half of the drain
// rule: a write that applied behind a failed slot is not in flight, so the
// rebuild does not wait for it — but the installed image has overwritten its
// bytes, so it must not commit on their strength. It is demoted to failed
// and the sender's retry re-applies it.
func TestRebuildDemotesAppliedSuccessors(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newRebuildEnv(t)
		defer cleanup()
		src := e.start("src", false, nil, 30*time.Millisecond)
		fi := simdisk.NewFaultInjector(simdisk.NewSSD(fastSSD(), clock.Realtime), clock.Realtime)
		dst := e.start("dst", false, fi, 30*time.Millisecond)
		mustCreate(t, src, CreateChunkReq{View: 1})
		mustCreate(t, dst, CreateChunkReq{View: 1})
		first := bytes.Repeat([]byte{0x41}, 4*util.KiB)
		second := bytes.Repeat([]byte{0x42}, 4*util.KiB)
		const secondOff = 1 * util.MiB
		if st := apply(src, proto.OpReplicate, 0, 0, first); st != proto.StatusOK {
			t.Fatalf("source write: %s", st)
		}
		// On the destination the first write fails; the second, disjoint, lands
		// but cannot commit behind it.
		fi.FailWriteRange(nil, 0, int64(len(first)))
		if st := apply(dst, proto.OpReplicate, 0, 0, first); st != proto.StatusError {
			t.Fatalf("first write = %s, want error", st)
		}
		if st := apply(dst, proto.OpReplicate, 1, secondOff, second); st != proto.StatusBehind {
			t.Fatalf("second write = %s, want behind (applied, uncommitted)", st)
		}
		fi.Heal()

		resp := dst.Handle(rebuildMsg(proto.OpFill, 1, 0, FillReq{Source: "src", View: 1}))
		if resp.Status != proto.StatusOK || resp.Version != 1 {
			t.Fatalf("clone = %s at version %d, want ok at the source's 1", resp.Status, resp.Version)
		}
		// The retry of the second write re-claims its slot and lands for real.
		if st := apply(dst, proto.OpReplicate, 1, secondOff, second); st != proto.StatusOK {
			t.Fatalf("retry of the second write = %s", st)
		}
		r := dst.Handle(&proto.Message{
			Op: proto.OpRead, Chunk: testChunk, Off: secondOff, Length: uint32(len(second)), View: 1, Version: 2,
		})
		if r.Status != proto.StatusOK || !bytes.Equal(r.Payload, second) {
			t.Fatalf("read-back of the retried write: %s", r.Status)
		}
		bufpool.Put(r.Payload)
	})
}

// TestFillOverEvictedSlot: a view change's replacement lands on a server
// that still holds a slot of the chunk from an earlier view, at version 2 of
// a chunk now at 6. That slot's history need not be a prefix of the
// source's — an evicted primary can hold a write the survivors never got, at
// a version the next view gave another write — so the create for the new
// view makes the slot afresh and the fill copies the whole chunk, however
// far back the source's journal-lite history reaches and however the old
// slot stood. The slot ends byte-exact at version 6. A fill that reaches
// such a slot with no create ahead of it copies too: only a replica of the
// fill's view repairs incrementally.
func TestFillOverEvictedSlot(t *testing.T) {
	for _, row := range []struct {
		name     string
		liteCap  int  // the source's history; 0 keeps liteCap
		diverged bool // the old slot's version 1 is a write the source never got
		suspect  bool
		noCreate bool // the fill arrives without the create
	}{
		{name: "history reaches back"},
		{name: "history evicted", liteCap: 2},
		{name: "diverged history", diverged: true},
		{name: "suspect slot", suspect: true},
		{name: "diverged history, no create", diverged: true, noCreate: true},
	} {
		t.Run(row.name, func(t *testing.T) {
			clock.Test(t, func() {
				e, cleanup := newRebuildEnv(t)
				defer cleanup()
				src := e.start("src", false, nil, time.Second)
				dst := e.start("dst", false, nil, time.Second)
				mustCreate(t, src, CreateChunkReq{View: 1})
				mustCreate(t, dst, CreateChunkReq{View: 1})
				if row.liteCap > 0 {
					cs := src.chunk(testChunk)
					cs.mu.Lock()
					cs.lite = journal.NewLite(row.liteCap)
					cs.mu.Unlock()
				}
				// Both replicas take two writes; then dst is evicted and the
				// source's four later writes overwrite part of what it holds.
				r := util.NewRand(3)
				for v := uint64(0); v < 6; v++ {
					data := make([]byte, 8*util.KiB)
					r.Fill(data)
					off := int64(v%3) * 4 * util.KiB
					targets := []*Server{src}
					if v < 2 {
						targets = append(targets, dst)
					}
					for _, s := range targets {
						at := off
						if s == dst && v == 1 && row.diverged {
							at = 64 * util.KiB // where no later write reaches
						}
						if st := apply(s, proto.OpReplicate, v, at, data); st != proto.StatusOK {
							t.Fatalf("write %d on %s: %s", v, s.Addr(), st)
						}
					}
				}
				dst.chunk(testChunk).suspect.Store(row.suspect)

				if !row.noCreate {
					create := dst.Handle(CreateChunks(ChunkCreate{Chunk: testChunk, CreateChunkReq: CreateChunkReq{View: 2}}))
					if create.Status != proto.StatusOK {
						t.Fatalf("create over the old slot = %s, want a fresh slot", create.Status)
					}
				}
				before := dst.Stats().BytesWritten
				resp := dst.Handle(rebuildMsg(proto.OpFill, 2, 6, FillReq{Source: "src", View: 1}))
				if resp.Status != proto.StatusOK || resp.Version != 6 {
					t.Fatalf("fill = %s at version %d, want ok at 6", resp.Status, resp.Version)
				}
				if got := dst.Stats(); got.Clones != 1 || got.Repairs != 0 || got.BytesWritten-before != util.ChunkSize {
					t.Errorf("fill counted %d clones and %d repairs moving %d bytes, want one whole copy",
						got.Clones, got.Repairs, got.BytesWritten-before)
				}
				if ver, view := versionView(t, dst); ver != 6 || view != 2 {
					t.Errorf("version %d view %d after the fill, want 6 and 2", ver, view)
				}
				if !bytes.Equal(slot(t, dst), slot(t, src)) {
					t.Error("filled slot differs from the source's")
				}
			})
		})
	}
}

// TestFillAfterRoleChange: an RS replacement lands on a server that still
// holds a slot of the chunk in another role — holder 2's segment, from view
// 1. The create for view 2 as holder 0, or as the primary, makes the slot
// afresh in that role, so the fill snapshots or decodes the piece the
// position needs, not the one the old slot held.
func TestFillAfterRoleChange(t *testing.T) {
	for _, row := range []struct {
		name   string
		create func(spec redundancy.Spec) CreateChunkReq
		fill   func(s *rsStripe) FillReq
		want   func(s *rsStripe) *Server // the replica whose slot the fill must reproduce
	}{
		{
			name: "holder 0 from the primary",
			create: func(spec redundancy.Spec) CreateChunkReq {
				return CreateChunkReq{Redundancy: spec, Holder: true, Seg: 0}
			},
			fill: func(s *rsStripe) FillReq { return FillReq{Source: "p", View: 1} },
			want: func(s *rsStripe) *Server { return s.holders[0] },
		},
		{
			name: "holder 0 by peer decode",
			create: func(spec redundancy.Spec) CreateChunkReq {
				return CreateChunkReq{Redundancy: spec, Holder: true, Seg: 0}
			},
			fill: func(s *rsStripe) FillReq { return FillReq{Sources: s.sources(2)[1:]} },
			want: func(s *rsStripe) *Server { return s.holders[0] },
		},
		{
			name:   "primary by peer decode",
			create: func(spec redundancy.Spec) CreateChunkReq { return CreateChunkReq{Redundancy: spec} },
			fill:   func(s *rsStripe) FillReq { return FillReq{Sources: s.sources(2)} },
			want:   func(s *rsStripe) *Server { return s.primary },
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			clock.Test(t, func() {
				e, cleanup := newRebuildEnv(t)
				defer cleanup()
				stripe := newRSStripe(t, e, nil)
				h2 := stripe.holders[2]
				req := row.create(stripe.spec)
				req.View = 2
				if create := h2.Handle(CreateChunks(ChunkCreate{Chunk: testChunk, CreateChunkReq: req})); create.Status != proto.StatusOK {
					t.Fatalf("create over holder 2's slot = %s, want a fresh slot", create.Status)
				}
				resp := h2.Handle(rebuildMsg(proto.OpFill, 2, stripe.version, row.fill(stripe)))
				if resp.Status != proto.StatusOK || resp.Version != stripe.version {
					t.Fatalf("fill = %s at version %d, want ok at %d", resp.Status, resp.Version, stripe.version)
				}
				if !bytes.Equal(slot(t, h2), slot(t, row.want(stripe))) {
					t.Error("filled slot differs from the piece its new position holds")
				}
			})
		})
	}
}

// rsStripe is a full RS(4,2) stripe — primary plus six holders, all wired —
// with a few writes fanned out through the primary, so every holder is at
// one version with consistent data and parity, started in e. The primary
// stands on primaryDisk (nil: a fresh fast SSD).
type rsStripe struct {
	*rebuildEnv
	spec    redundancy.Spec
	primary *Server
	holders []*Server
	version uint64
}

func newRSStripe(t *testing.T, e *rebuildEnv, primaryDisk simdisk.Disk) *rsStripe {
	s := &rsStripe{rebuildEnv: e, spec: redundancy.Spec{Kind: redundancy.KindRS, N: 4, M: 2}}
	s.primary = s.start("p", false, primaryDisk, time.Second)
	var addrs []string
	for i := 0; i < s.spec.N+s.spec.M; i++ {
		addr := fmt.Sprintf("h%d", i)
		addrs = append(addrs, addr)
		// Every other holder is a backup server: installs go through the
		// journal set there.
		s.holders = append(s.holders, s.start(addr, i%2 == 1, nil, time.Second))
		mustCreate(t, s.holders[i], CreateChunkReq{View: 1, Redundancy: s.spec, Holder: true, Seg: i})
	}
	mustCreate(t, s.primary, CreateChunkReq{View: 1, Redundancy: s.spec, Backups: addrs})
	segSize := s.spec.SegSize()
	r := util.NewRand(7)
	for _, w := range []struct {
		off int64
		n   int
	}{{0, 4 * util.KiB}, {segSize + 8*util.KiB, 64 * util.KiB}, {3 * segSize, 4 * util.KiB}, {100 * util.KiB, 16 * util.KiB}} {
		data := make([]byte, w.n)
		r.Fill(data)
		if st := apply(s.primary, proto.OpWrite, s.version, w.off, data); st != proto.StatusOK {
			t.Fatalf("stripe write %d: %s", s.version, st)
		}
		s.version++
	}
	return s
}

func (s *rsStripe) sources(except int) []PieceSource {
	var out []PieceSource
	for i, h := range s.holders {
		if i != except {
			out = append(out, PieceSource{Addr: h.Addr(), Piece: i, View: 1})
		}
	}
	return out
}

// TestRSPrimaryVerifiesOldBytes: an RS primary plans a write's parity deltas
// from the bytes the write replaces, so it reads them verified. Rot that a
// re-read settles (one shot) must not reach the parity: the write commits and
// segment 0, decoded from holders 1–5 with either parity piece, is the bytes
// written. Rot that persists fails the write and the primary reports itself:
// parity planned from rotten bytes would decode wrong under an OK.
func TestRSPrimaryVerifiesOldBytes(t *testing.T) {
	for _, tc := range []struct {
		name       string
		persistent bool
	}{{"one-shot rot", false}, {"persistent rot", true}} {
		t.Run(tc.name, func(t *testing.T) {
			clock.Test(t, func() {
				fi := simdisk.NewFaultInjector(simdisk.NewSSD(fastSSD(), clock.Realtime), clock.Realtime)
				e, cleanup := newRebuildEnv(t)
				defer cleanup()
				stripe := newRSStripe(t, e, fi)
				const n = 4 * util.KiB
				at := stripe.primary.store.SlotOffset(testChunk)
				fi.CorruptRange(at, at+n, tc.persistent) // the old bytes of segment 0's first sectors
				data := bytes.Repeat([]byte{0x22}, n)
				st := apply(stripe.primary, proto.OpWrite, stripe.version, 0, data)
				if tc.persistent {
					if st != proto.StatusCorrupt || !stripe.primary.chunk(testChunk).suspect.Load() {
						t.Fatalf("write over persistently rotten old bytes = %s, primary suspect %v; want corrupt and suspect",
							st, stripe.primary.chunk(testChunk).suspect.Load())
					}
					return
				}
				if st != proto.StatusOK {
					t.Fatalf("write over once-rotten old bytes = %s, want ok", st)
				}
				pieces := make(map[int][]byte)
				for i := 1; i < len(stripe.holders); i++ {
					r := stripe.holders[i].Handle(&proto.Message{Op: proto.OpRead, Chunk: testChunk, Length: n, View: 1, Version: stripe.version + 1})
					if r.Status != proto.StatusOK {
						t.Fatalf("read of holder %d: %s", i, r.Status)
					}
					pieces[i] = r.Payload
					defer bufpool.Put(r.Payload)
				}
				code := stripe.primary.chunk(testChunk).strat.(*redundancy.RS).Code()
				for parity := stripe.spec.N; parity < stripe.spec.N+stripe.spec.M; parity++ {
					avail := map[int][]byte{1: pieces[1], 2: pieces[2], 3: pieces[3], parity: pieces[parity]}
					got := make([]byte, n)
					if err := code.Reconstruct(avail, 0, got); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, data) {
						t.Errorf("segment 0 decoded with parity piece %d = %#x.., want the written %#x..", parity, got[:1], data[:1])
					}
				}
			})
		})
	}
}

// TestRebuildSources drives the rebuild engine once per source kind and
// checks what every rebuild owes: the source's bytes, its version, the
// lifted view, one clone counted, and every buffer lease returned.
func TestRebuildSources(t *testing.T) {
	// The source a row fills from: the mirror source "src" or the RS
	// stripe, both in one env.
	type source struct {
		backup  bool // destination has a journal set
		create  CreateChunkReq
		msg     *proto.Message
		want    *Server // the replica whose slot the destination must end up with
		version uint64
	}
	rows := []struct {
		name string
		src  func(stripe *rsStripe, mirror *Server) source
	}{
		{"mirror copy", func(_ *rsStripe, mirror *Server) source {
			return source{create: CreateChunkReq{View: 1},
				msg: rebuildMsg(proto.OpFill, 2, 0, FillReq{Source: "src", View: 1}), want: mirror, version: 2}
		}},
		// A parity segment, so the primary encodes it on the fly.
		{"segment from primary snapshot", func(s *rsStripe, _ *Server) source {
			return source{backup: true, create: CreateChunkReq{View: 1, Redundancy: s.spec, Holder: true, Seg: 4},
				msg:  rebuildMsg(proto.OpFill, 2, s.version, FillReq{Source: "p", View: 1, Sources: s.sources(4)}),
				want: s.holders[4], version: s.version}
		}},
		{"segment by peer decode", func(s *rsStripe, _ *Server) source {
			return source{create: CreateChunkReq{View: 1, Redundancy: s.spec, Holder: true, Seg: 1},
				msg:  rebuildMsg(proto.OpFill, 2, s.version, FillReq{Sources: s.sources(1)}),
				want: s.holders[1], version: s.version}
		}},
		{"replacement primary by peer decode", func(s *rsStripe, _ *Server) source {
			return source{create: CreateChunkReq{View: 1, Redundancy: s.spec},
				msg:  rebuildMsg(proto.OpFill, 2, s.version, FillReq{Sources: s.sources(0)}),
				want: s.primary, version: s.version}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			clock.Test(t, func() {
				e, cleanup := newRebuildEnv(t)
				defer cleanup()
				stripe := newRSStripe(t, e, nil)
				mirror := e.start("src", true, nil, time.Second)
				mustCreate(t, mirror, CreateChunkReq{View: 1})
				// One journaled and one bypassed write: the copy must carry both.
				for v, n := range []int{4 * util.KiB, 128 * util.KiB} {
					data := bytes.Repeat([]byte{byte(0x51 + v)}, n)
					if st := apply(mirror, proto.OpReplicate, uint64(v), int64(v)*util.MiB, data); st != proto.StatusOK {
						t.Fatalf("mirror source write %d: %s", v, st)
					}
				}
				src := row.src(stripe, mirror)
				dst := e.start("dst", src.backup, nil, time.Second)
				mustCreate(t, dst, src.create)
				leases := e.leases()
				resp := dst.Handle(src.msg)
				if resp.Status != proto.StatusOK {
					t.Fatalf("rebuild: %s", resp.Status)
				}
				if ver, view := versionView(t, dst); ver != src.version || view != 2 || resp.Version != src.version {
					t.Errorf("version %d (reply %d) view %d, want version %d view 2", ver, resp.Version, view, src.version)
				}
				if got := dst.Stats().Clones; got != 1 {
					t.Errorf("clones counted = %d, want 1", got)
				}
				if !bytes.Equal(slot(t, dst), slot(t, src.want)) {
					t.Error("rebuilt slot differs from the source's")
				}
				waitFor(t, "buffer leases to return", func() bool { return e.leases() == leases })
			})
		})
	}
}

// TestRebuildSourceDiesMidTransfer kills a mirror copy's source after two
// pieces: the rebuild must fail cleanly — nothing adopted, nothing counted,
// and no lease outstanding for the fetches that were in flight.
func TestRebuildSourceDiesMidTransfer(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newRebuildEnv(t)
		defer cleanup()
		disk := &hookDisk{Disk: simdisk.NewSSD(fastSSD(), clock.Realtime)}
		disk.hook = func() { e.net.Crash("src") }
		src := e.start("src", false, disk, 50*time.Millisecond)
		dst := e.start("dst", false, nil, 50*time.Millisecond)
		mustCreate(t, src, CreateChunkReq{View: 1})
		mustCreate(t, dst, CreateChunkReq{View: 1})
		if st := apply(src, proto.OpReplicate, 0, 0, bytes.Repeat([]byte{0x61}, 4*util.KiB)); st != proto.StatusOK {
			t.Fatalf("source write: %s", st)
		}
		leases := e.leases()
		disk.countdown.Store(3) // the third piece's read never answers
		resp := dst.Handle(rebuildMsg(proto.OpFill, 2, 0, FillReq{Source: "src", View: 1}))
		if resp.Status != proto.StatusError {
			t.Fatalf("clone from a dying source = %s, want error", resp.Status)
		}
		if ver, view := versionView(t, dst); ver != 0 || view != 1 {
			t.Errorf("failed clone left version %d view %d, want 0 and 1", ver, view)
		}
		if got := dst.Stats().Clones; got != 0 {
			t.Errorf("clones counted = %d, want 0", got)
		}
		waitFor(t, "buffer leases to return", func() bool { return e.leases() == leases })
	})
}

// TestRebuildSourcePartitionedMidTransfer cuts a mirror copy's source off
// silently — messages dropped, connection left standing — while the second
// piece is being read, so fetches are on the wire that nothing will ever
// answer. Each fetch is bounded by its per-piece window: the clone must fail
// within the command's budget instead of holding the chunk lock for good,
// keep the (healthy) connection, leak no lease, and leave the replica
// rebuildable — a second clone, from a source that answers, succeeds.
func TestRebuildSourcePartitionedMidTransfer(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newRebuildEnv(t)
		defer cleanup()
		disk := &hookDisk{Disk: simdisk.NewSSD(fastSSD(), clock.Realtime)}
		disk.hook = func() { e.net.Partition("src", "dst") }
		src := e.start("src", false, disk, time.Second)
		good := e.start("good", false, nil, time.Second)
		dst := e.start("dst", false, nil, time.Second)
		for _, s := range []*Server{src, good, dst} {
			mustCreate(t, s, CreateChunkReq{View: 1})
		}
		data := bytes.Repeat([]byte{0x62}, 4*util.KiB)
		for _, s := range []*Server{src, good} {
			if st := apply(s, proto.OpReplicate, 0, 0, data); st != proto.StatusOK {
				t.Fatalf("write on %s: %s", s.Addr(), st)
			}
		}
		leases := e.leases()
		disk.countdown.Store(2) // cut while the second piece is read
		clone := rebuildMsg(proto.OpFill, 2, 0, FillReq{Source: "src", View: 1})
		clone.Budget = 400 * time.Millisecond // a per-piece window of 300 ms
		t0 := time.Now()
		resp := dst.Handle(clone)
		if took := time.Since(t0); resp.Status != proto.StatusError || took > 2*time.Second {
			t.Fatalf("clone from a partitioned source = %s after %v, want an error within its budget", resp.Status, took)
		}
		if ver, view := versionView(t, dst); ver != 0 || view != 1 {
			t.Errorf("failed clone left version %d view %d, want 0 and 1", ver, view)
		}
		if c, err := dst.peers.Get("src"); err != nil || c == nil {
			t.Errorf("a timeout evicted the source's connection: %v", err)
		}
		waitFor(t, "buffer leases to return", func() bool { return e.leases() == leases })

		resp = dst.Handle(rebuildMsg(proto.OpFill, 2, 0, FillReq{Source: "good", View: 1}))
		if resp.Status != proto.StatusOK {
			t.Fatalf("clone from a healthy source after the failed one: %s", resp.Status)
		}
		if ver, view := versionView(t, dst); ver != 1 || view != 2 {
			t.Errorf("version %d view %d after the clone, want 1 and 2", ver, view)
		}
		if !bytes.Equal(slot(t, dst), slot(t, good)) {
			t.Error("rebuilt slot differs from the source's")
		}
	})
}

// TestRebuildSnapshotTornRetry lands a write on the primary between the two
// pieces of a segment snapshot (RS(2,1): a 32 MiB segment is two 16 MiB
// fetches). The pieces then carry different versions; the holder must
// notice, fetch again, and end byte-identical at the newer version.
func TestRebuildSnapshotTornRetry(t *testing.T) {
	clock.Test(t, func() {
		spec := redundancy.Spec{Kind: redundancy.KindRS, N: 2, M: 1}
		e, cleanup := newRebuildEnv(t)
		defer cleanup()
		disk := &hookDisk{Disk: simdisk.NewSSD(fastSSD(), clock.Realtime)}
		primary := e.start("p", false, disk, time.Second)
		holder := e.start("h", false, nil, time.Second)
		mustCreate(t, primary, CreateChunkReq{View: 1, Redundancy: spec})
		mustCreate(t, holder, CreateChunkReq{View: 1, Redundancy: spec, Holder: true, Seg: 0})
		if st := apply(primary, proto.OpReplicate, 0, 0, bytes.Repeat([]byte{0x71}, 4*util.KiB)); st != proto.StatusOK {
			t.Fatalf("primary write: %s", st)
		}
		// The first piece's read (under the primary's chunk lock) releases a
		// writer that queues on that lock and is admitted before the second
		// piece's fetch arrives.
		var racing sync.WaitGroup
		racing.Add(1)
		disk.hook = func() {
			go func() {
				defer racing.Done()
				if st := apply(primary, proto.OpReplicate, 1, 8*util.KiB, bytes.Repeat([]byte{0x72}, 4*util.KiB)); st != proto.StatusOK {
					t.Errorf("racing write: %s", st)
				}
			}()
		}
		fetches := primary.Stats().Reads
		disk.countdown.Store(1)
		resp := holder.Handle(rebuildMsg(proto.OpFill, 2, 0, FillReq{Source: "p", View: 1}))
		racing.Wait()
		if resp.Status != proto.StatusOK || resp.Version != 2 {
			t.Fatalf("rebuild = %s at version %d, want ok at 2", resp.Status, resp.Version)
		}
		if n := primary.Stats().Reads - fetches; n < 3 {
			t.Errorf("primary served %d segment fetches: the torn snapshot was not retried", n)
		}
		got := slot(t, holder)
		if !bytes.Equal(got, slot(t, primary)[:len(got)]) {
			t.Error("rebuilt segment differs from the primary's")
		}
	})
}

// TestFillRefusedBySourceThatChanged: a fill reads its source at the view
// the master saw it at and at the fill's target version, through the
// source's one read admission. While the fill copies, after its first piece
// is installed, the source moves to another view, turns suspect, or is made
// afresh — empty — at the same view. The fill must fail and leave the
// target's version as it was: a mirror copy, an incremental repair and an RS
// decode alike. An incremental repair reads its source once, so there the
// source changes before that read.
func TestFillRefusedBySourceThatChanged(t *testing.T) {
	events := []struct {
		name  string
		apply func(t *testing.T, src *Server, req CreateChunkReq)
	}{
		{"moves to another view", func(t *testing.T, src *Server, _ CreateChunkReq) {
			if r := src.Handle(&proto.Message{Op: proto.OpSetView, Chunk: testChunk, View: 2}); r.Status != proto.StatusOK {
				t.Errorf("set view on the source: %s", r.Status)
			}
		}},
		{"turns suspect", func(t *testing.T, src *Server, _ CreateChunkReq) {
			src.chunk(testChunk).suspect.Store(true)
		}},
		{"is made afresh", func(t *testing.T, src *Server, req CreateChunkReq) {
			src.Handle(&proto.Message{Op: proto.OpDeleteChunk, Payload: proto.EncodeChunkIDs(testChunk)})
			if r := src.Handle(CreateChunks(ChunkCreate{Chunk: testChunk, CreateChunkReq: req})); r.Status != proto.StatusOK {
				t.Errorf("re-create on the source: %s", r.Status)
			}
		}},
	}
	write := func(t *testing.T, s *Server, v uint64) {
		t.Helper()
		if st := apply(s, proto.OpReplicate, v, int64(v)*util.MiB, bytes.Repeat([]byte{byte(0x81 + v)}, 8*util.KiB)); st != proto.StatusOK {
			t.Fatalf("write %d on %s: %s", v, s.Addr(), st)
		}
	}
	// Each path returns the target, the fill, and the source with the
	// create that makes it. inflight is how many of the source's reads the
	// fill has sent by its first install — 0: the source changes before
	// the fill.
	paths := []struct {
		name     string
		inflight int64
		setup    func(t *testing.T, e *rebuildEnv, disk *hookDisk) (dst *Server, fill *proto.Message, src *Server, req CreateChunkReq)
	}{
		{"mirror copy", 4, func(t *testing.T, e *rebuildEnv, disk *hookDisk) (*Server, *proto.Message, *Server, CreateChunkReq) {
			req := CreateChunkReq{View: 1}
			src, dst := e.start("src", false, nil, time.Second), e.start("dst", false, disk, time.Second)
			mustCreate(t, src, req)
			mustCreate(t, dst, req)
			for v := uint64(0); v < 3; v++ {
				write(t, src, v)
			}
			return dst, rebuildMsg(proto.OpFill, 1, 3, FillReq{Source: "src", View: 1}), src, req
		}},
		{"incremental repair", 0, func(t *testing.T, e *rebuildEnv, disk *hookDisk) (*Server, *proto.Message, *Server, CreateChunkReq) {
			req := CreateChunkReq{View: 1}
			src, dst := e.start("src", false, nil, time.Second), e.start("dst", false, disk, time.Second)
			mustCreate(t, src, req)
			mustCreate(t, dst, req)
			for v := uint64(0); v < 4; v++ {
				write(t, src, v)
				if v < 2 {
					write(t, dst, v)
				}
			}
			return dst, rebuildMsg(proto.OpFill, 1, 4, FillReq{Source: "src", View: 1}), src, req
		}},
		{"RS decode", 1, func(t *testing.T, e *rebuildEnv, disk *hookDisk) (*Server, *proto.Message, *Server, CreateChunkReq) {
			stripe := newRSStripe(t, e, nil)
			dst := stripe.start("dst", false, disk, time.Second)
			mustCreate(t, dst, CreateChunkReq{View: 1, Redundancy: stripe.spec, Holder: true, Seg: 1})
			// Exactly N sources, so no piece can be spared.
			sources := stripe.sources(1)[:stripe.spec.N]
			fill := rebuildMsg(proto.OpFill, 1, stripe.version, FillReq{Sources: sources})
			return dst, fill, stripe.holders[0], CreateChunkReq{View: 1, Redundancy: stripe.spec, Holder: true, Seg: 0}
		}},
	}
	for _, path := range paths {
		for _, ev := range events {
			t.Run(path.name+", source "+ev.name, func(t *testing.T) {
				clock.Test(t, func() {
					e, cleanup := newRebuildEnv(t)
					defer cleanup()
					disk := &hookDisk{Disk: simdisk.NewSSD(fastSSD(), clock.Realtime)}
					dst, fill, src, req := path.setup(t, e, disk)
					before, view := versionView(t, dst)
					disk.hook = func() {
						// The pieces in flight are answered before the source
						// changes under them (within a bound: a source that
						// does not count them as reads is changed anyway).
						for end := time.Now().Add(time.Second); src.Stats().Reads < path.inflight && time.Now().Before(end); {
							time.Sleep(100 * time.Microsecond)
						}
						ev.apply(t, src, req)
					}
					if path.inflight == 0 {
						disk.hook()
					} else {
						disk.writes.Store(1)
					}
					resp := dst.Handle(fill)
					if resp.Status == proto.StatusOK {
						t.Fatalf("fill from a source that %s = ok at version %d, want a failure", ev.name, resp.Version)
					}
					if ver, v := versionView(t, dst); ver != before || v != view {
						t.Errorf("failed fill left version %d view %d, want %d and %d", ver, v, before, view)
					}
					if got := dst.Stats(); got.Clones != 0 || got.Repairs != 0 {
						t.Errorf("failed fill counted %d clones and %d repairs", got.Clones, got.Repairs)
					}
				})
			})
		}
	}
}

// TestInventoryAnswersPastAFill: a whole-chunk fill holds its chunk's lock
// while it waits on its source's device, which on an HDD takes seconds. The
// master's inventory of the filling server must not wait it out: it answers
// at once, the filling chunk non-OK and every other chunk OK.
func TestInventoryAnswersPastAFill(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newRebuildEnv(t)
		defer cleanup()
		disk := &hookDisk{Disk: simdisk.NewSSD(fastSSD(), clock.Realtime)}
		src := e.start("src", false, disk, time.Second)
		dst := e.start("dst", false, nil, time.Second)
		other := blockstore.MakeChunkID(2, 0)
		mustCreate(t, src, CreateChunkReq{View: 1})
		mustCreate(t, dst, CreateChunkReq{View: 1})
		if r := dst.Handle(CreateChunks(ChunkCreate{Chunk: other, CreateChunkReq: CreateChunkReq{View: 1}})); r.Status != proto.StatusOK {
			t.Fatalf("create %v: %s", other, r.Status)
		}
		if st := apply(src, proto.OpReplicate, 0, 0, bytes.Repeat([]byte{0x5a}, 4*util.KiB)); st != proto.StatusOK {
			t.Fatalf("source write: %s", st)
		}

		// The fill's first read of the source stalls until released.
		reading, release := make(chan struct{}), make(chan struct{})
		disk.hook = func() { close(reading); <-release }
		disk.countdown.Store(1)
		// The destination holds version 0, so the fill copies the whole chunk,
		// under its lock.
		filled := make(chan proto.Status, 1)
		go func() { filled <- dst.Handle(rebuildMsg(proto.OpFill, 1, 1, FillReq{Source: "src", View: 1})).Status }()
		defer func() {
			close(release)
			if st := <-filled; st != proto.StatusOK {
				t.Errorf("fill = %s", st)
			}
		}()
		<-reading

		answered := make(chan *proto.Message, 1)
		go func() { answered <- dst.Handle(&proto.Message{Op: proto.OpGetVersion}) }()
		var resp *proto.Message
		select {
		case resp = <-answered:
		case <-time.After(time.Second):
			t.Fatal("the inventory waited on the filling chunk's lock")
		}
		got := map[blockstore.ChunkID]proto.Status{}
		for _, r := range results(t, resp) {
			got[r.Chunk] = r.Status
		}
		if len(got) != 2 || got[testChunk] == proto.StatusOK || got[other] != proto.StatusOK {
			t.Fatalf("inventory during the fill: %v, want %v non-OK and %v OK", got, testChunk, other)
		}
	})
}

// TestDeleteYieldsDuringAFill: a delete that arrives while a whole-chunk
// fill holds the chunk lock raises the chunk's doom mark, and the fill
// yields with nothing adopted, so the delete does not wait out the 64 pieces
// of the chunk and the slot goes: with the source streaming, the fill yields
// within a few pieces; with the source silent, the delete cuts the fill's
// wait for its piece short instead of waiting out the piece's 10 s window. A
// delete guarded below the slot's view cannot drop the slot, so the fill is
// not pre-empted: it completes, and the delete is refused.
func TestDeleteYieldsDuringAFill(t *testing.T) {
	for _, row := range []struct {
		name   string
		upTo   uint64
		stream bool // the source serves a read every 2 ms; else none until the delete answers
	}{
		{"any-view-source-streaming", proto.AnyView, true},
		{"any-view-source-silent", proto.AnyView, false},
		{"below-the-view", 0, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			clock.Test(t, func() {
				e, cleanup := newRebuildEnv(t)
				defer cleanup()
				disk := &hookDisk{Disk: simdisk.NewSSD(fastSSD(), clock.Realtime)}
				src := e.start("src", false, disk, time.Second)
				dst := e.start("dst", false, nil, time.Second)
				mustCreate(t, src, CreateChunkReq{View: 1})
				mustCreate(t, dst, CreateChunkReq{View: 1})
				if st := apply(src, proto.OpReplicate, 0, 0, bytes.Repeat([]byte{0x5a}, 4*util.KiB)); st != proto.StatusOK {
					t.Fatalf("source write: %s", st)
				}

				// The destination holds version 0, so the fill copies the whole
				// chunk under its lock. Each source read is held until the test
				// hands it a token or opens the gate for good: the hook re-arms
				// before it waits, so the fill's pipelined reads are held too.
				waiting, tokens, open := make(chan struct{}, 1), make(chan struct{}), make(chan struct{})
				disk.hook = func() {
					disk.countdown.Store(1)
					select {
					case waiting <- struct{}{}:
					default:
					}
					select {
					case <-tokens:
					case <-open:
					}
				}
				disk.countdown.Store(1)
				filled := make(chan proto.Status, 1)
				go func() { filled <- dst.Handle(rebuildMsg(proto.OpFill, 1, 1, FillReq{Source: "src", View: 1})).Status }()
				<-waiting
				deleted := make(chan proto.Status, 1)
				go func() {
					deleted <- dst.Handle(&proto.Message{
						Op: proto.OpDeleteChunk, Payload: proto.EncodeChunks(proto.ChunkEntry{Chunk: testChunk, UpTo: row.upTo}),
					}).Status
				}()
				var fed atomic.Int64
				stop, feeder := make(chan struct{}), make(chan struct{})
				go func() {
					defer close(feeder)
					for row.stream {
						select {
						case tokens <- struct{}{}:
							fed.Add(1)
							time.Sleep(2 * time.Millisecond)
						case <-stop:
							return
						}
					}
				}()
				defer func() {
					close(stop)
					<-feeder
					close(open)
				}()

				// A delete that pre-empts answers within a tenth of one piece's
				// window; one that cannot waits out the whole fill.
				limit := time.Second
				if row.upTo != proto.AnyView {
					limit = time.Minute
				}
				var del proto.Status
				select {
				case del = <-deleted:
				case <-time.After(limit):
					t.Fatalf("the delete did not answer within %v", limit)
				}
				pieces := fed.Load()
				fill := <-filled
				if row.upTo != proto.AnyView {
					if fill != proto.StatusOK || del != proto.StatusStaleView || !dst.store.Has(testChunk) {
						t.Fatalf("fill = %s, delete = %s, slot kept %v; want the fill to complete and the delete refused",
							fill, del, dst.store.Has(testChunk))
					}
					return
				}
				if del != proto.StatusOK || fill == proto.StatusOK {
					t.Fatalf("delete = %s, fill = %s; want the delete OK and the fill yielding", del, fill)
				}
				if pieces >= 16 {
					t.Errorf("the delete answered after %d source reads of the chunk's 64: it waited out the fill", pieces)
				}
				if dst.store.Has(testChunk) || dst.chunk(testChunk) != nil {
					t.Error("the deleted replica's slot or state is still held")
				}
			})
		})
	}
}

// TestWholeFillSetsTheVersionItInstalled: an RS holder at version 3 — it
// applied a write the primary, at 2, never committed — is sent a whole fill
// at target 2. The segment snapshot replaces every byte with the primary's
// version-2 segment, so the holder answers at 2 and says 2 when probed: a
// replica that kept claiming 3 would ack the primary's next write, at version
// 2, as a §4.2.1 duplicate without applying it.
func TestWholeFillSetsTheVersionItInstalled(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newRebuildEnv(t)
		defer cleanup()
		primary, holder, _ := rsPair(t, e, redundancy.Spec{Kind: redundancy.KindRS, N: 4, M: 2}, time.Second)
		for v := uint64(0); v < 3; v++ {
			data := bytes.Repeat([]byte{byte(0x51 + v)}, 4*util.KiB)
			targets := []*Server{holder}
			if v < 2 {
				targets = append(targets, primary)
			}
			for _, s := range targets {
				if st := apply(s, proto.OpReplicate, v, int64(v)*8*util.KiB, data); st != proto.StatusOK {
					t.Fatalf("write %d on %s: %s", v, s.Addr(), st)
				}
			}
		}
		if ver, _ := versionView(t, holder); ver != 3 {
			t.Fatalf("holder at version %d before the fill, want 3", ver)
		}

		resp := holder.Handle(rebuildMsg(proto.OpFill, 1, 2, FillReq{Source: "p", View: 1}))
		if resp.Status != proto.StatusOK || resp.Version != 2 {
			t.Fatalf("fill = %s at version %d, want ok at the installed 2", resp.Status, resp.Version)
		}
		if ver, _ := versionView(t, holder); ver != 2 {
			t.Fatalf("holder says version %d after the fill, want 2", ver)
		}
		seg := slot(t, holder)
		if !bytes.Equal(seg, slot(t, primary)[:len(seg)]) {
			t.Fatal("filled segment differs from the primary's")
		}

		next := bytes.Repeat([]byte{0x5f}, 4*util.KiB)
		const off = 16 * util.KiB
		if st := apply(holder, proto.OpReplicate, 2, off, next); st != proto.StatusOK {
			t.Fatalf("the primary's next write on the holder: %s", st)
		}
		r := holder.Handle(&proto.Message{Op: proto.OpRead, Chunk: testChunk, Off: off, Length: uint32(len(next)), View: 1, Version: 3})
		if r.Status != proto.StatusOK || !bytes.Equal(r.Payload, next) {
			t.Fatalf("read-back of the write after the fill = %s, want it applied at version 3", r.Status)
		}
		bufpool.Put(r.Payload)
	})
}
