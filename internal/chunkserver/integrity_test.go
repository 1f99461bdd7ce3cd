package chunkserver

import (
	"bytes"
	"testing"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/metrics"
	"ursa/internal/proto"
	"ursa/internal/simdisk"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// integrityEnv is a standalone primary whose SSD sits behind a fault
// injector, with direct access to both layers.
type integrityEnv struct {
	net   *transport.SimNet
	clk   clock.Clock
	reg   *metrics.Registry
	disk  *simdisk.FaultInjector
	store *blockstore.Store
	srv   *Server
	srvs  []*Server // every server startServer started
}

// newIntegrityEnv returns the env and its close, which also closes every
// server startServer starts later.
func newIntegrityEnv(t *testing.T) (*integrityEnv, func()) {
	t.Helper()
	clk := clock.Realtime
	e := &integrityEnv{
		net: transport.NewSimNet(clk, time.Microsecond),
		clk: clk,
		reg: metrics.NewRegistry(),
	}
	e.disk = simdisk.NewFaultInjector(simdisk.NewSSD(fastSSD(), clk), clk)
	e.store = blockstore.New(e.disk, 0)
	e.srv = e.startServer(t, "p")
	return e, func() {
		for _, s := range e.srvs {
			s.Close()
		}
		e.disk.Close()
	}
}

// startServer starts a primary over the env's existing store — the same
// call models both first boot and a post-restart re-attach.
func (e *integrityEnv) startServer(t *testing.T, addr string) *Server {
	t.Helper()
	srv := New(Config{
		Addr: addr, Clock: e.clk,
		Dialer:      e.net.Dialer(addr, transport.NodeConfig{}),
		ReplTimeout: 50 * time.Millisecond,
		Metrics:     e.reg,
	}, e.store, nil)
	l, err := e.net.Listen(addr, transport.NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(l)
	e.srvs = append(e.srvs, srv)
	return srv
}

func (e *integrityEnv) create(t *testing.T, srv *Server, want proto.Status) {
	t.Helper()
	resp := srv.Handle(CreateChunks(ChunkCreate{Chunk: testChunk, CreateChunkReq: CreateChunkReq{View: 1}}))
	if resp.Status != want {
		t.Fatalf("create on %s = %s, want %s", srv.Addr(), resp.Status, want)
	}
}

// read returns srv's reply to a read with the payload copied out of the
// reply's lease, which it returns to the pool.
func (e *integrityEnv) read(srv *Server, off int64, n int) *proto.Message {
	r := srv.Handle(&proto.Message{
		Op: proto.OpRead, Chunk: testChunk, Off: off, Length: uint32(n), View: 1,
	})
	leased := r.Payload
	r.Payload = bytes.Clone(leased)
	bufpool.Put(leased)
	return r
}

// TestChecksumsDetectCorruptionAfterRestart models the nastiest latent
// case: the device rots while the server is down. A restarted server
// re-attaches to the surviving slot (CreateChunk answers Exists) and its
// first read of the rotted block must come back StatusCorrupt — never the
// garbage payload.
func TestChecksumsDetectCorruptionAfterRestart(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newIntegrityEnv(t)
		defer cleanup()
		e.create(t, e.srv, proto.StatusOK)
		data := make([]byte, 4*util.KiB)
		util.NewRand(51).Fill(data)
		if resp := write(e.srv, 0, 0, data); resp.Status != proto.StatusOK {
			t.Fatal(resp.Status)
		}

		// "Crash" the server process; the store and device survive.
		e.srv.Close()

		// Rot one committed sector directly on the device while the server is
		// down. The first created chunk occupies the slot at device offset 0.
		rot := make([]byte, util.SectorSize)
		util.NewRand(52).Fill(rot)
		if err := e.disk.WriteAt(rot, 512); err != nil {
			t.Fatal(err)
		}

		// Restart: re-attach to the surviving chunk.
		srv2 := e.startServer(t, "p2")
		e.create(t, srv2, proto.StatusExists)

		// The clean sector still reads; the rotted one is detected.
		if r := e.read(srv2, 0, util.SectorSize); r.Status != proto.StatusOK || !bytes.Equal(r.Payload, data[:util.SectorSize]) {
			t.Fatalf("clean sector after restart = %s", r.Status)
		}
		if r := e.read(srv2, 512, util.SectorSize); r.Status != proto.StatusCorrupt {
			t.Fatalf("rotted sector after restart = %s, want %s", r.Status, proto.StatusCorrupt)
		}
		if got := e.reg.Counter(MetricChecksumMismatches).Load(); got == 0 {
			t.Error("mismatch not counted")
		}
	})
}

// TestChecksumsSurviveUpgrade drains a graceful hot upgrade (§5.2) and
// checks the verification state is fully intact on the other side: clean
// data still verifies, and rot armed after the upgrade is still caught.
func TestChecksumsSurviveUpgrade(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newIntegrityEnv(t)
		defer cleanup()
		e.create(t, e.srv, proto.StatusOK)
		data := make([]byte, 4*util.KiB)
		util.NewRand(53).Fill(data)
		if resp := write(e.srv, 0, 0, data); resp.Status != proto.StatusOK {
			t.Fatal(resp.Status)
		}

		e.srv.Upgrade()
		if got := e.srv.Stats().UpgradeGen; got != 1 {
			t.Fatalf("upgrade gen = %d", got)
		}

		if r := e.read(e.srv, 0, len(data)); r.Status != proto.StatusOK || !bytes.Equal(r.Payload, data) {
			t.Fatalf("clean read after upgrade = %s", r.Status)
		}
		e.disk.CorruptRange(0, 4*util.KiB, true)
		if r := e.read(e.srv, 0, len(data)); r.Status != proto.StatusCorrupt {
			t.Fatalf("rotted read after upgrade = %s, want %s", r.Status, proto.StatusCorrupt)
		}
	})
}

// TestOneShotCorruptionAbsorbedByReread arms a one-shot flip: the read
// path's per-sector re-read must absorb it and return the true payload with
// no mismatch counted — transient device hiccups are not integrity events.
func TestOneShotCorruptionAbsorbedByReread(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newIntegrityEnv(t)
		defer cleanup()
		e.create(t, e.srv, proto.StatusOK)
		data := make([]byte, 4*util.KiB)
		util.NewRand(54).Fill(data)
		if resp := write(e.srv, 0, 0, data); resp.Status != proto.StatusOK {
			t.Fatal(resp.Status)
		}

		e.disk.CorruptRange(0, 4*util.KiB, false) // one shot
		r := e.read(e.srv, 0, len(data))
		if r.Status != proto.StatusOK {
			t.Fatalf("read with one-shot rot = %s", r.Status)
		}
		if !bytes.Equal(r.Payload, data) {
			t.Fatal("one-shot rot leaked into the returned payload")
		}
		if got := e.reg.Counter(MetricChecksumMismatches).Load(); got != 0 {
			t.Errorf("transient flip counted as mismatch: %d", got)
		}
		if got := e.disk.FaultStats().ReadsCorrupted; got == 0 {
			t.Fatal("fault never fired: test proved nothing")
		}
	})
}

// TestPersistentCorruptionReportedOnce checks the read path keeps failing
// (and never fabricates data) while rot persists, then recovers after the
// device is healed and the data rewritten.
func TestPersistentCorruptionHealsAfterRewrite(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newIntegrityEnv(t)
		defer cleanup()
		e.create(t, e.srv, proto.StatusOK)
		data := make([]byte, util.SectorSize)
		util.NewRand(55).Fill(data)
		if resp := write(e.srv, 0, 0, data); resp.Status != proto.StatusOK {
			t.Fatal(resp.Status)
		}
		e.disk.CorruptRange(0, util.SectorSize, true)
		for i := 0; i < 2; i++ {
			if r := e.read(e.srv, 0, util.SectorSize); r.Status != proto.StatusCorrupt {
				t.Fatalf("read %d under persistent rot = %s", i, r.Status)
			}
		}
		e.disk.Heal()
		// A fresh write restamps the sector; reads verify again.
		if resp := write(e.srv, 1, 0, data); resp.Status != proto.StatusOK {
			t.Fatal(resp.Status)
		}
		if r := e.read(e.srv, 0, util.SectorSize); r.Status != proto.StatusOK || !bytes.Equal(r.Payload, data) {
			t.Fatalf("read after heal+rewrite = %s", r.Status)
		}
	})
}
