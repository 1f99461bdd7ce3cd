package master

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/chunkserver"
	"ursa/internal/clock"
	"ursa/internal/journal"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/simdisk"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// env is a master plus chunk servers on a simnet.
type env struct {
	net    *transport.SimNet
	m      *Master
	nSSD   int
	nHDD   int
	stores map[string]*blockstore.Store // by server address
	closer []func()
}

// envLeaseTTL is newEnv's client lease: long enough to hold across a test's
// back-to-back calls, short enough that a test waits it out.
const envLeaseTTL = 100 * time.Millisecond

// fastSSD and fastHDD are device models fast enough that most of their
// sleeps end below the runtime's timer floor: on the real clock a device op
// costs next to nothing, and the SSD/HDD gap holds.
func fastSSD() simdisk.SSDModel {
	return simdisk.SSDModel{
		Capacity: 2 * util.GiB, Parallelism: 32,
		ReadLatency: 100 * time.Nanosecond, WriteLatency: 200 * time.Nanosecond,
		ReadBandwidth: 400e9, WriteBandwidth: 240e9,
	}
}

func fastHDD() simdisk.HDDModel {
	return simdisk.HDDModel{
		Capacity: 4 * util.GiB, SeekMax: 20 * time.Microsecond,
		SeekSettle: 1250 * time.Nanosecond, RPM: 5760000,
		Bandwidth: 120e9, TrackSkip: 512 * util.KiB,
	}
}

// newEnv builds a master with nMachines machines, each carrying one SSD
// (primary) and one HDD (backup) server, and returns it with its close.
func newEnv(t *testing.T, nMachines int, hybrid bool) (*env, func()) {
	t.Helper()
	clk := clock.Realtime
	net := transport.NewSimNet(clk, 50*time.Nanosecond) // below the timer floor, like the device models
	e := &env{net: net, stores: map[string]*blockstore.Store{}}

	ml, err := net.Listen("master", transport.NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	e.m = New(Config{
		Addr:       "master",
		Clock:      clk,
		Dialer:     net.Dialer("master", transport.NodeConfig{}),
		LeaseTTL:   envLeaseTTL,
		RPCTimeout: 5 * time.Second,
		HybridMode: hybrid,
	})
	e.m.Serve(ml)
	e.closer = append(e.closer, e.m.Close)

	for i := 0; i < nMachines; i++ {
		machine := "m" + string(rune('0'+i))
		mkServer := func(addr string, role chunkserver.Role) {
			var store *blockstore.Store
			var jset *journal.Set
			if role == chunkserver.RolePrimary {
				store = blockstore.New(simdisk.NewSSD(fastSSD(), clk), 0)
			} else {
				hdd := simdisk.NewHDD(fastHDD(), clk)
				store = blockstore.New(hdd, util.AlignDown(hdd.Size()/2, util.ChunkSize))
				jset = journal.NewSet(clk, store, journal.DefaultConfig())
				jset.AddSSDJournal(addr+"-j", simdisk.NewSSD(fastSSD(), clk), 0, 64*util.MiB)
				jset.Start()
			}
			srv := chunkserver.New(chunkserver.Config{
				Addr: addr, Clock: clk,
				Dialer:      net.Dialer(addr, transport.NodeConfig{}),
				ReplTimeout: time.Second,
			}, store, jset)
			l, err := net.Listen(addr, transport.NodeConfig{})
			if err != nil {
				e.close()
				t.Fatal(err)
			}
			srv.Serve(l)
			e.closer = append(e.closer, srv.Close)
			e.stores[addr] = store
			e.m.AddServer(addr, machine, role == chunkserver.RolePrimary, store.Capacity())
		}
		mkServer(machine+"/ssd", chunkserver.RolePrimary)
		e.nSSD++
		if hybrid {
			mkServer(machine+"/hdd", chunkserver.RoleBackup)
			e.nHDD++
		}
	}
	return e, e.close
}

// close closes what the env started, last first.
func (e *env) close() {
	for i := len(e.closer) - 1; i >= 0; i-- {
		e.closer[i]()
	}
}

// send hands msg to addr through m's fanOut and returns the status of its
// answer; ok is false when none came within window.
func send(m *Master, addr string, msg *proto.Message, window time.Duration) (status proto.Status, ok bool) {
	m.fanOut(window, []serverQueue{{addr, []*proto.Message{msg}}}, func(_ int, resp *proto.Message) bool {
		status, ok = resp.Status, true
		return true
	})
	return status, ok
}

// call drives the master through its RPC handler (as a client would).
func (e *env) call(t *testing.T, op proto.Op, req, out any) proto.Status {
	t.Helper()
	var payload []byte
	if req != nil {
		payload, _ = json.Marshal(req)
	}
	resp := e.m.Handle(&proto.Message{Op: op, Payload: payload})
	if resp.Status == proto.StatusOK && out != nil && len(resp.Payload) > 0 {
		if err := json.Unmarshal(resp.Payload, out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.Status
}

func TestCreatePlacementConstraints(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t, 4, true)
		defer cleanup()
		var meta VDiskMeta
		st := e.call(t, proto.MOpCreateVDisk,
			CreateVDiskReq{Name: "d", Size: 4 * util.ChunkSize}, &meta)
		if st != proto.StatusOK {
			t.Fatal(st)
		}
		if len(meta.Chunks) != 4 {
			t.Fatalf("chunks = %d", len(meta.Chunks))
		}
		for i, cm := range meta.Chunks {
			if len(cm.Replicas) != 3 {
				t.Fatalf("chunk %d replicas = %d", i, len(cm.Replicas))
			}
			if !cm.Replicas[0].SSD {
				t.Errorf("chunk %d primary not SSD", i)
			}
			// Hybrid: backups on HDD servers; all replicas on distinct
			// machines (machine = addr prefix before '/').
			machines := map[byte]bool{}
			for j, r := range cm.Replicas {
				if j > 0 && r.SSD {
					t.Errorf("chunk %d backup %d on SSD in hybrid mode", i, j)
				}
				mkey := r.Addr[1] // "mX/..."
				if machines[mkey] {
					t.Errorf("chunk %d has two replicas on machine %c", i, mkey)
				}
				machines[mkey] = true
			}
		}
	})
}

func TestCreateSSDOnlyPlacement(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t, 4, false)
		defer cleanup()
		var meta VDiskMeta
		st := e.call(t, proto.MOpCreateVDisk,
			CreateVDiskReq{Name: "d", Size: util.ChunkSize}, &meta)
		if st != proto.StatusOK {
			t.Fatal(st)
		}
		for _, r := range meta.Chunks[0].Replicas {
			if !r.SSD {
				t.Error("SSD-only placement used an HDD server")
			}
		}
	})
}

func TestCreateValidation(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t, 4, true)
		defer cleanup()
		if st := e.call(t, proto.MOpCreateVDisk,
			CreateVDiskReq{Name: "bad", Size: 1000}, nil); st != proto.StatusError {
			t.Errorf("unaligned size = %s", st)
		}
		if st := e.call(t, proto.MOpCreateVDisk,
			CreateVDiskReq{Name: "bad2", Size: util.ChunkSize, StripeUnit: 3000}, nil); st != proto.StatusError {
			t.Errorf("bad stripe unit = %s", st)
		}
		e.call(t, proto.MOpCreateVDisk, CreateVDiskReq{Name: "dup", Size: util.ChunkSize}, nil)
		if st := e.call(t, proto.MOpCreateVDisk,
			CreateVDiskReq{Name: "dup", Size: util.ChunkSize}, nil); st != proto.StatusExists {
			t.Errorf("duplicate = %s", st)
		}
	})
}

func TestCreateFailsWithoutDistinctMachines(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t, 2, true) // only 2 machines: cannot place 3 replicas
		defer cleanup()
		if st := e.call(t, proto.MOpCreateVDisk,
			CreateVDiskReq{Name: "d", Size: util.ChunkSize}, nil); st != proto.StatusQuota {
			t.Errorf("impossible placement = %s", st)
		}
	})
}

func TestLeaseLifecycle(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t, 4, true)
		defer cleanup()
		e.call(t, proto.MOpCreateVDisk, CreateVDiskReq{Name: "d", Size: util.ChunkSize}, nil)

		var meta VDiskMeta
		if st := e.call(t, proto.MOpOpenVDisk,
			OpenVDiskReq{Name: "d", Client: "alice"}, &meta); st != proto.StatusOK {
			t.Fatal(st)
		}
		// Second client is rejected while the lease holds.
		if st := e.call(t, proto.MOpOpenVDisk,
			OpenVDiskReq{Name: "d", Client: "bob"}, nil); st != proto.StatusLeaseHeld {
			t.Errorf("second open = %s", st)
		}
		// The same client may reopen (idempotent).
		if st := e.call(t, proto.MOpOpenVDisk,
			OpenVDiskReq{Name: "d", Client: "alice"}, nil); st != proto.StatusOK {
			t.Errorf("reopen = %s", st)
		}
		// Renewal by the holder succeeds; by others fails.
		if st := e.call(t, proto.MOpRenewLease,
			LeaseReq{ID: meta.ID, Client: "alice"}, nil); st != proto.StatusOK {
			t.Errorf("renew = %s", st)
		}
		if st := e.call(t, proto.MOpRenewLease,
			LeaseReq{ID: meta.ID, Client: "bob"}, nil); st != proto.StatusLeaseHeld {
			t.Errorf("foreign renew = %s", st)
		}
		// Close releases; bob can now open.
		if st := e.call(t, proto.MOpCloseVDisk,
			LeaseReq{ID: meta.ID, Client: "alice"}, nil); st != proto.StatusOK {
			t.Errorf("close = %s", st)
		}
		if st := e.call(t, proto.MOpOpenVDisk,
			OpenVDiskReq{Name: "d", Client: "bob"}, nil); st != proto.StatusOK {
			t.Errorf("open after close = %s", st)
		}
	})
}

func TestLeaseExpiry(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t, 4, true)
		defer cleanup()
		e.call(t, proto.MOpCreateVDisk, CreateVDiskReq{Name: "d", Size: util.ChunkSize}, nil)
		var meta VDiskMeta
		e.call(t, proto.MOpOpenVDisk, OpenVDiskReq{Name: "d", Client: "alice"}, &meta)

		// Wait out the TTL without renewal: bob may take over.
		clock.Realtime.Sleep(envLeaseTTL)
		if st := e.call(t, proto.MOpOpenVDisk,
			OpenVDiskReq{Name: "d", Client: "bob"}, nil); st != proto.StatusOK {
			t.Errorf("open after expiry = %s", st)
		}
		// Alice's stale renewal now fails.
		if st := e.call(t, proto.MOpRenewLease,
			LeaseReq{ID: meta.ID, Client: "alice"}, nil); st != proto.StatusLeaseHeld {
			t.Errorf("stale renew = %s", st)
		}
	})
}

func TestGetAndDelete(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t, 4, true)
		defer cleanup()
		e.call(t, proto.MOpCreateVDisk, CreateVDiskReq{Name: "d", Size: util.ChunkSize}, nil)
		var meta VDiskMeta
		if st := e.call(t, proto.MOpGetVDisk, GetVDiskReq{Name: "d"}, &meta); st != proto.StatusOK {
			t.Fatal(st)
		}
		if st := e.call(t, proto.MOpGetVDisk, GetVDiskReq{ID: meta.ID}, &meta); st != proto.StatusOK {
			t.Fatal(st)
		}
		if st := e.call(t, proto.MOpGetVDisk, GetVDiskReq{Name: "nope"}, nil); st != proto.StatusNotFound {
			t.Errorf("missing get = %s", st)
		}
		if st := e.call(t, proto.MOpDeleteVDisk, GetVDiskReq{Name: "d"}, nil); st != proto.StatusOK {
			t.Fatal(st)
		}
		if st := e.call(t, proto.MOpGetVDisk, GetVDiskReq{Name: "d"}, nil); st != proto.StatusNotFound {
			t.Errorf("get after delete = %s", st)
		}
		// A lone master is the primary of a set of one: epoch 1, and every commit
		// is logged — one per registered server, the create and the delete.
		commits := uint64(e.nSSD + e.nHDD + 2)
		if seq, epoch := e.m.LogSeq(), e.m.Epoch(); seq != commits || epoch != 1 {
			t.Errorf("lone master: log seq %d, epoch %d; want %d and 1", seq, epoch, commits)
		}
	})
}

func TestRegisterRPCAndStats(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t, 4, true)
		defer cleanup()
		if st := e.call(t, proto.MOpRegister,
			RegisterReq{Addr: "mX/extra", Machine: "mX", SSD: true}, nil); st != proto.StatusOK {
			t.Fatal(st)
		}
		if n := len(e.m.Snapshot().Servers); n != e.nSSD+e.nHDD+1 {
			t.Errorf("servers = %d, want %d", n, e.nSSD+e.nHDD+1)
		}
		// Duplicate registration is idempotent.
		e.call(t, proto.MOpRegister, RegisterReq{Addr: "mX/extra", Machine: "mX", SSD: true}, nil)
		if n := len(e.m.Snapshot().Servers); n != e.nSSD+e.nHDD+1 {
			t.Errorf("duplicate register changed count: %d", n)
		}
	})
}

func TestRecoverChunkReplacesDeadPrimary(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t, 4, true)
		defer cleanup()
		var meta VDiskMeta
		if st := e.call(t, proto.MOpCreateVDisk,
			CreateVDiskReq{Name: "d", Size: util.ChunkSize}, &meta); st != proto.StatusOK {
			t.Fatal(st)
		}
		primary := meta.Chunks[0].Replicas[0].Addr
		e.net.Crash(primary)

		newMeta, err := e.m.RecoverChunk(meta.ID, 0, primary, 0)
		if err != nil {
			t.Fatal(err)
		}
		if newMeta.View != 3 { // sealed at 2
			t.Errorf("view = %d", newMeta.View)
		}
		if len(newMeta.Replicas) != 3 {
			t.Fatalf("replicas = %d", len(newMeta.Replicas))
		}
		for _, r := range newMeta.Replicas {
			if r.Addr == primary {
				t.Error("dead primary still placed")
			}
		}
		if !newMeta.Replicas[0].SSD {
			t.Error("replacement primary not on SSD")
		}
		// Metadata reflects the new view.
		var got VDiskMeta
		e.call(t, proto.MOpGetVDisk, GetVDiskReq{ID: meta.ID}, &got)
		if got.Chunks[0].View != 3 {
			t.Errorf("stored view = %d", got.Chunks[0].View)
		}
		if n := e.m.Snapshot().ViewChanges; n != 1 {
			t.Errorf("view changes = %d", n)
		}
	})
}

func TestRecoverChunkRepairsLaggard(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t, 4, true)
		defer cleanup()
		var meta VDiskMeta
		e.call(t, proto.MOpCreateVDisk, CreateVDiskReq{Name: "d", Size: util.ChunkSize}, &meta)

		// Advance one backup ahead of the other via direct replicate calls.
		b1 := meta.Chunks[0].Replicas[1].Addr
		driver := transport.NewPeers(e.net.Dialer("driver", transport.NodeConfig{}), clock.Realtime)
		defer driver.CloseAll()
		op := opctx.New(clock.Realtime, 0)
		defer op.Release()
		id := blockstore.MakeChunkID(meta.ID, 0)
		for v := uint64(0); v < 3; v++ {
			resp, err := driver.Do(op, b1, &proto.Message{
				Op: proto.OpReplicate, Chunk: id, Off: int64(v) * 512,
				View: 1, Version: v, Payload: make([]byte, 512),
			}, 0)
			if err != nil || resp.Status != proto.StatusOK {
				t.Fatalf("seed write: %v %v", err, resp)
			}
		}
		// Recover with no dead replica: pure repair to versionH=3.
		if _, err := e.m.RecoverChunk(meta.ID, 0, "", 0); err != nil {
			t.Fatal(err)
		}
		// All replicas should now report version 3.
		for _, r := range meta.Chunks[0].Replicas {
			resp, err := driver.Do(op, r.Addr, &proto.Message{Op: proto.OpGetVersion, Payload: proto.EncodeChunkIDs(id)}, 0)
			if err != nil || resp.Version != 3 {
				t.Errorf("%s version = %d (err %v)", r.Addr, resp.Version, err)
			}
		}
	})
}

// TestReportViewDecidesProbe: the view a report names decides what the
// master does. At the recorded view, a whole chunk is answered as it
// stands; above it, the chunk is sealed at a view above the reporter's and
// gets the next, counted as a mend; below it, the recorded meta comes back with no probe, so even a
// chunk whose every replica is down answers at once.
func TestReportViewDecidesProbe(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t, 4, true)
		defer cleanup()
		var meta VDiskMeta
		e.call(t, proto.MOpCreateVDisk, CreateVDiskReq{Name: "d", Size: util.ChunkSize}, &meta)
		report := func(view uint64) (*ChunkMeta, error) { return e.m.RecoverChunk(meta.ID, 0, "", view) }

		if cm, err := report(1); err != nil || cm.View != 1 {
			t.Fatalf("report at the recorded view: %+v, %v; want view 1 unchanged", cm, err)
		}
		if cm, err := report(5); err != nil || cm.View != 7 {
			t.Fatalf("report above the recorded view: %+v, %v; want view 7", cm, err)
		}
		if got := e.m.cfg.Metrics.Counter(MetricViewMends).Load(); got != 1 {
			t.Errorf("%s = %d, want 1", MetricViewMends, got)
		}
		for _, r := range meta.Chunks[0].Replicas {
			e.net.Crash(r.Addr)
		}
		if cm, err := report(2); err != nil || cm.View != 7 {
			t.Fatalf("report below the recorded view: %+v, %v; want the recorded view 7", cm, err)
		}
		if _, err := report(7); !errors.Is(err, util.ErrNoQuorum) {
			t.Errorf("report at the recorded view with every replica down: %v, want ErrNoQuorum", err)
		}
	})
}

func TestRecoverUnknownChunk(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t, 4, true)
		defer cleanup()
		if _, err := e.m.RecoverChunk(99, 0, "", 0); !errors.Is(err, util.ErrNotFound) {
			t.Errorf("unknown vdisk recover: %v", err)
		}
	})
}
