package client

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/chunkserver"
	"ursa/internal/clock"
	"ursa/internal/journal"
	"ursa/internal/master"
	"ursa/internal/metrics"
	"ursa/internal/opctx"
	"ursa/internal/simdisk"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// env is a master + chunk servers cluster for client-level tests. closers
// are what it and its client and vdisk methods opened, in order.
type env struct {
	net     *transport.SimNet
	m       *master.Master
	servers map[string]*chunkserver.Server
	closers []func()
}

// close closes what the env opened, last first.
func (e *env) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
}

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

// testCallTimeout is the clients' per-RPC timeout: no test here waits for it
// to expire, and under the race detector on a small host a 256 KiB write
// through three checksumming replicas takes tens of milliseconds — a timeout
// inside that range turns into a retry, a master report and a spent I/O
// budget.
const testCallTimeout = 150 * time.Millisecond

// newEnv returns the env and its close, which also closes every client and
// vdisk its methods opened.
func newEnv(t *testing.T) (*env, func()) {
	return newEnvSized(t, fastSSD().Capacity, fastHDD().Capacity)
}

// newEnvSized is newEnv with the given SSD and HDD capacities: simulated
// disks are sparse, so room for hundreds of chunk slots costs nothing.
func newEnvSized(t *testing.T, ssdCap, hddCap int64) (*env, func()) {
	t.Helper()
	ssdModel, hddModel := fastSSD(), fastHDD()
	ssdModel.Capacity, hddModel.Capacity = ssdCap, hddCap
	clk := clock.Realtime
	net := transport.NewSimNet(clk, 50*time.Nanosecond) // below the timer floor, like the device models
	e := &env{net: net, servers: make(map[string]*chunkserver.Server)}

	ml, err := net.Listen("master", transport.NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	e.m = master.New(master.Config{
		Addr: "master", Clock: clk,
		Dialer:     net.Dialer("master", transport.NodeConfig{}),
		HybridMode: true, LeaseTTL: 5 * time.Second,
		RPCTimeout: 2 * time.Second,
	})
	e.m.Serve(ml)
	e.closers = append(e.closers, e.m.Close)

	for i := 0; i < 4; i++ {
		machine := "m" + string(rune('0'+i))
		mk := func(addr string, role chunkserver.Role) {
			var store *blockstore.Store
			var jset *journal.Set
			if role == chunkserver.RolePrimary {
				store = blockstore.New(simdisk.NewSSD(ssdModel, clk), 0)
			} else {
				hdd := simdisk.NewHDD(hddModel, clk)
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
			e.servers[addr] = srv
			e.closers = append(e.closers, srv.Close)
			e.m.AddServer(addr, machine, role == chunkserver.RolePrimary, store.Capacity())
		}
		mk(machine+"/ssd", chunkserver.RolePrimary)
		mk(machine+"/hdd", chunkserver.RoleBackup)
	}
	return e, e.close
}

func (e *env) client(t *testing.T, name string) *Client {
	t.Helper()
	cl := New(Config{
		Name: name, MasterAddrs: []string{"master"}, Clock: clock.Realtime,
		Dialer:      e.net.Dialer("client-"+name, transport.NodeConfig{}),
		CallTimeout: testCallTimeout,
	})
	e.closers = append(e.closers, cl.Close)
	return cl
}

func (e *env) vdisk(t *testing.T, cl *Client, name string, size int64) *VDisk {
	t.Helper()
	if _, err := cl.CreateVDisk(master.CreateVDiskReq{Name: name, Size: size}); err != nil {
		t.Fatal(err)
	}
	vd, err := cl.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	e.closers = append(e.closers, func() { vd.Close() })
	return vd
}

func TestClientRoundTripAndStats(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		cl := e.client(t, "a")
		vd := e.vdisk(t, cl, "d", 128*util.MiB)

		data := make([]byte, 4*util.KiB)
		util.NewRand(1).Fill(data)
		if err := vd.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if err := vd.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("round trip mismatch")
		}
		st := vd.Stats()
		if st.Writes != 1 || st.Reads != 1 || st.TinyWrites != 1 {
			t.Errorf("stats = %+v", st)
		}
		if vd.ID() == 0 || vd.Meta().Name != "d" {
			t.Error("metadata accessors wrong")
		}
	})
}

func TestClientRegistryMetrics(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		reg := metrics.NewRegistry()
		cl := New(Config{
			Name: "m", MasterAddrs: []string{"master"}, Clock: clock.Realtime,
			Dialer:      e.net.Dialer("client-m", transport.NodeConfig{}),
			CallTimeout: testCallTimeout,
			Metrics:     reg,
		})
		defer cl.Close()
		vd := e.vdisk(t, cl, "d", 128*util.MiB)

		data := make([]byte, 4*util.KiB)
		util.NewRand(3).Fill(data)
		for i := 0; i < 3; i++ {
			if err := vd.WriteAt(data, int64(i)*int64(len(data))); err != nil {
				t.Fatal(err)
			}
		}
		if got := reg.Counter("client-tiny-writes").Load(); got != 3 {
			t.Errorf("client-tiny-writes = %d, want 3", got)
		}
	})
}

func TestClientLargeWriteViaPrimary(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		cl := e.client(t, "a")
		vd := e.vdisk(t, cl, "d", 128*util.MiB)
		data := make([]byte, 256*util.KiB)
		util.NewRand(2).Fill(data)
		if err := vd.WriteAt(data, util.MiB); err != nil {
			t.Fatal(err)
		}
		if vd.Stats().TinyWrites != 0 {
			t.Error("large write took the tiny path")
		}
		got := make([]byte, len(data))
		if err := vd.ReadAt(got, util.MiB); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("large round trip mismatch")
		}
	})
}

// TestStripedWriteJoinsEveryFragment: a 256 KiB write over two 128 KiB stripe
// units is two fragments on two chunks, forked. When one fragment's primary
// is down and no master is left to move its chunk, that fragment spends its
// retries and the write fails with its error — but only once the other
// fragment has committed and the failing one has left its version to its
// chunk's next writer as an orphan, and with nothing still holding the op:
// whichever of the two ran on the caller's goroutine.
func TestStripedWriteJoinsEveryFragment(t *testing.T) {
	for failing := 0; failing < 2; failing++ {
		t.Run(fmt.Sprintf("fragment %d fails", failing), func(t *testing.T) {
			clock.Test(t, func() {
				e, cleanup := newEnv(t)
				defer cleanup()
				cl := e.client(t, "s")
				const unit = 128 * util.KiB
				if _, err := cl.CreateVDisk(master.CreateVDiskReq{
					Name: "d", Size: 2 * util.ChunkSize, StripeGroup: 2, StripeUnit: unit,
				}); err != nil {
					t.Fatal(err)
				}
				vd, err := cl.Open("d")
				if err != nil {
					t.Fatal(err)
				}
				defer vd.Close()
				data := make([]byte, 2*unit)
				util.NewRand(7).Fill(data)
				if err := vd.WriteAt(data, 0); err != nil {
					t.Fatalf("striped write on a healthy cluster: %v", err)
				}
				other := 1 - failing
				if p0, p1 := vd.meta.Chunks[0].Replicas[0].Addr, vd.meta.Chunks[1].Replicas[0].Addr; p0 == p1 {
					t.Fatalf("both chunks' primaries on %s", p0)
				}
				ops := opctx.InUse()
				e.net.Crash("master")
				e.net.Crash(vd.meta.Chunks[failing].Replicas[0].Addr)
				util.NewRand(8).Fill(data)
				err = vd.WriteAt(data, 0)
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("write chunk %d ", failing)) {
					t.Fatalf("write with chunk %d's primary down: %v", failing, err)
				}
				if next, committed, orphans := chunkState(vd, other); next != 2 || committed != 2 || orphans != 0 {
					t.Errorf("fragment %d at return: next %d, committed %d, %d orphans; want it committed at 2",
						other, next, committed, orphans)
				}
				if _, _, orphans := chunkState(vd, failing); orphans != 1 {
					t.Errorf("fragment %d gave up, and its chunk has %d orphans, want 1", failing, orphans)
				}
				// The write's own op is released at return; the asynchronous
				// failure report it started has one of its own for a moment.
				for deadline := time.Now().Add(5 * time.Second); opctx.InUse() > ops; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("ops in use %d after the write returned, %d before it", opctx.InUse(), ops)
					}
				}
				got := make([]byte, unit)
				if err := vd.ReadAt(got, int64(other)*unit); err != nil || !bytes.Equal(got, data[other*unit:][:unit]) {
					t.Errorf("fragment %d's bytes after the failed write: err %v", other, err)
				}
			})
		})
	}
}

func TestClientFailoverToBackup(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		cl := e.client(t, "a")
		vd := e.vdisk(t, cl, "d", util.ChunkSize)
		data := make([]byte, 8*util.KiB)
		util.NewRand(3).Fill(data)
		if err := vd.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		meta, err := cl.OpenMeta("d")
		if err != nil {
			t.Fatal(err)
		}
		e.net.Crash(meta.Chunks[0].Replicas[0].Addr)
		got := make([]byte, len(data))
		if err := vd.ReadAt(got, 0); err != nil {
			t.Fatalf("read after crash: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Error("backup data mismatch")
		}
		if vd.Stats().Failovers == 0 {
			t.Error("no failover recorded")
		}
	})
}

func TestClientErrors(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		cl := e.client(t, "a")
		if _, err := cl.Open("missing"); !errors.Is(err, util.ErrNotFound) {
			t.Errorf("open missing: %v", err)
		}
		if _, err := cl.OpenMeta("missing"); !errors.Is(err, util.ErrNotFound) {
			t.Errorf("openmeta missing: %v", err)
		}
		if err := cl.DeleteVDisk("missing"); !errors.Is(err, util.ErrNotFound) {
			t.Errorf("delete missing: %v", err)
		}
		e.vdisk(t, cl, "d", util.ChunkSize)
		if _, err := cl.CreateVDisk(master.CreateVDiskReq{Name: "d", Size: util.ChunkSize}); !errors.Is(err, util.ErrExists) {
			t.Errorf("duplicate: %v", err)
		}
		cl2 := e.client(t, "b")
		if _, err := cl2.Open("d"); !errors.Is(err, util.ErrLeaseHeld) {
			t.Errorf("lease: %v", err)
		}
	})
}

func TestClientClosedVDisk(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		cl := e.client(t, "a")
		vd := e.vdisk(t, cl, "d", util.ChunkSize)
		vd.Close()
		if err := vd.WriteAt(make([]byte, 512), 0); !errors.Is(err, util.ErrClosed) {
			t.Errorf("write after close: %v", err)
		}
		// Close is idempotent.
		if err := vd.Close(); err != nil {
			t.Error(err)
		}
	})
}

func TestClientUpgradePreservesState(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		cl := e.client(t, "a")
		vd := e.vdisk(t, cl, "d", util.ChunkSize)
		data := make([]byte, 4*util.KiB)
		util.NewRand(4).Fill(data)
		if err := vd.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		vd2, err := cl.UpgradeVDisk(vd)
		if err != nil {
			t.Fatal(err)
		}
		defer vd2.Close()
		got := make([]byte, len(data))
		if err := vd2.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("upgrade lost state")
		}
		// Writes continue with preserved version counters.
		if err := vd2.WriteAt(data, 8192); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCacheModule(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		cl := e.client(t, "a")
		vd := e.vdisk(t, cl, "d", 64*util.MiB)
		dev := WithCache(vd, 2*util.MiB)

		data := make([]byte, 8*util.KiB)
		util.NewRand(5).Fill(data)
		if err := dev.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if err := dev.ReadAt(got, 0); err != nil { // miss, fills cache
			t.Fatal(err)
		}
		if err := dev.ReadAt(got, 0); err != nil { // hit
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("cached read mismatch")
		}
		hits, misses, ok := CacheStats(dev)
		if !ok || hits == 0 || misses == 0 {
			t.Errorf("cache stats = %d/%d/%v", hits, misses, ok)
		}
		// Write-through keeps cache coherent.
		data2 := make([]byte, 8*util.KiB)
		util.NewRand(6).Fill(data2)
		if err := dev.WriteAt(data2, 0); err != nil {
			t.Fatal(err)
		}
		if err := dev.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data2) {
			t.Error("cache served stale data after write")
		}
		if _, _, ok := CacheStats(vd); ok {
			t.Error("CacheStats on non-cache device")
		}
	})
}

func TestCacheEviction(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		cl := e.client(t, "a")
		vd := e.vdisk(t, cl, "d", 64*util.MiB)
		// Capacity of exactly 2 blocks.
		dev := WithCache(vd, 2*cacheBlock)
		buf := make([]byte, cacheBlock)
		for i := int64(0); i < 4; i++ {
			if err := dev.ReadAt(buf, i*cacheBlock); err != nil {
				t.Fatal(err)
			}
		}
		_, misses, _ := CacheStats(dev)
		if misses != 4 {
			t.Errorf("misses = %d, want 4 (cold)", misses)
		}
		// Oldest blocks evicted: re-reading block 0 must miss again.
		if err := dev.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		_, misses2, _ := CacheStats(dev)
		if misses2 != 5 {
			t.Errorf("misses after eviction = %d, want 5", misses2)
		}
	})
}

func TestRateLimitModule(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		cl := e.client(t, "a")
		vd := e.vdisk(t, cl, "d", 64*util.MiB)
		// 1 MB/s budget: 256 KB of writes should take ≥ ~200ms wall.
		dev := WithRateLimit(vd, 1e6, clock.Realtime)
		start := time.Now()
		buf := make([]byte, 64*util.KiB)
		for i := int64(0); i < 4; i++ {
			if err := dev.WriteAt(buf, i*int64(len(buf))); err != nil {
				t.Fatal(err)
			}
		}
		if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
			t.Errorf("rate limit not applied: %v", elapsed)
		}
	})
}

func TestSnapshotSizeMismatch(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		cl := e.client(t, "a")
		src := e.vdisk(t, cl, "src", 128*util.MiB)
		dst := e.vdisk(t, cl, "dst", 64*util.MiB)
		if err := Snapshot(src, dst); !errors.Is(err, util.ErrOutOfRange) {
			t.Errorf("snapshot into smaller device: %v", err)
		}
	})
}

func TestLeaseLostStopsIO(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		cl := e.client(t, "a")
		vd := e.vdisk(t, cl, "d", util.ChunkSize)
		// Simulate a lost lease (the renewer sets this on StatusLeaseHeld).
		vd.leaseEnd.Store(&time.Time{})
		if err := vd.WriteAt(make([]byte, 512), 0); !errors.Is(err, util.ErrLeaseExpired) {
			t.Errorf("write with lost lease: %v", err)
		}
	})
}

// TestWritesStopAtTheLeaseEnd: a client cut off from the master stops writing
// once its lease runs out, before the master can give the vdisk to another
// client. Its write past the end is refused: acknowledged, it would be
// dropped, its version colliding with the new holder's.
func TestWritesStopAtTheLeaseEnd(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		c1, c2 := e.client(t, "a"), e.client(t, "b")
		vd1 := e.vdisk(t, c1, "d", util.ChunkSize)
		data := make([]byte, 4*util.KiB)
		util.NewRand(5).Fill(data)
		if err := vd1.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}

		e.net.Partition("client-a", "master")
		defer e.net.Heal("client-a", "master")
		clock.Realtime.Sleep(vd1.Meta().LeaseTTL + 500*time.Millisecond)
		vd2, err := c2.Open("d")
		if err != nil {
			t.Fatalf("open by a second client once the first's lease ran out: %v", err)
		}
		defer vd2.Close()
		if err := vd2.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}

		err = vd1.WriteAt(data, 8*util.MiB)
		if !errors.Is(err, util.ErrLeaseExpired) {
			t.Errorf("write past the lease's end: %v, want %v", err, util.ErrLeaseExpired)
		}
		if err == nil {
			got := make([]byte, len(data))
			if err := vd2.ReadAt(got, 8*util.MiB); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Error("the write past the lease's end was acknowledged and dropped")
			}
		}
	})
}
