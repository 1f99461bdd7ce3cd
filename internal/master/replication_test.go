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
	"ursa/internal/journal"
	"ursa/internal/metrics"
	"ursa/internal/objstore"
	"ursa/internal/proto"
	"ursa/internal/simdisk"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// replEnv is a replicated metadata service on a simnet: nMasters masters,
// hybrid chunkserver machines and a near-free object store, on the real
// clock.
type replEnv struct {
	net     *transport.SimNet
	reg     *metrics.Registry // shared by every master
	masters []*Master
	addrs   []string
	closer  []func()
}

// replLeaseTTL is a replEnv's client lease: it outlives a failover on the
// default PrimacyTTL.
const replLeaseTTL = 500 * time.Millisecond

func newReplEnv(t *testing.T, nMasters, nMachines int) (*replEnv, func()) {
	return newReplEnvTTL(t, nMasters, nMachines, 100*time.Millisecond)
}

// newReplEnvTTL is newReplEnv with a chosen primacy lease. Long scripted
// tests take a generous one: on a loaded host the default's 100 ms is short
// enough for a starved primary to be deposed mid-script. Each tweak edits
// every master's Config before it starts. It returns the env with its close.
func newReplEnvTTL(t *testing.T, nMasters, nMachines int, primacyTTL time.Duration, tweaks ...func(*Config)) (*replEnv, func()) {
	t.Helper()
	clk := clock.Realtime
	net := transport.NewSimNet(clk, 50*time.Nanosecond) // below the timer floor, like the device models
	e := &replEnv{net: net, reg: metrics.NewRegistry()}
	ol, err := net.Listen("objstore", transport.NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	e.closer = append(e.closer, transport.Serve(ol, objstore.New(clk, objstore.TestModel()).Handler).Close)
	for i := 0; i < nMasters; i++ {
		addr := "master"
		if i > 0 {
			addr = fmt.Sprintf("master-%d", i)
		}
		e.addrs = append(e.addrs, addr)
	}
	for _, addr := range e.addrs {
		l, err := net.Listen(addr, transport.NodeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Addr:         addr,
			Clock:        clk,
			Dialer:       net.Dialer(addr, transport.NodeConfig{}),
			LeaseTTL:     replLeaseTTL,
			RPCTimeout:   2 * time.Second,
			PrimacyTTL:   primacyTTL,
			Peers:        append([]string(nil), e.addrs...),
			HybridMode:   true,
			ObjstoreAddr: "objstore",
			Metrics:      e.reg,
		}
		for _, tweak := range tweaks {
			tweak(&cfg)
		}
		m := New(cfg)
		m.Serve(l)
		e.masters = append(e.masters, m)
		e.closer = append(e.closer, m.Close)
	}
	for i := 0; i < nMachines; i++ {
		machine := fmt.Sprintf("rm%d", i)
		for _, r := range e.startMachine(t, machine) {
			e.masters[0].AddServer(r.Addr, r.Machine, r.SSD, r.Capacity)
		}
	}
	return e, e.close
}

// close closes what the env started, last first.
func (e *replEnv) close() {
	for i := len(e.closer) - 1; i >= 0; i-- {
		e.closer[i]()
	}
}

// startMachine starts one machine's SSD (primary) and HDD (backup) chunk
// servers and returns their addresses; registering them is the caller's job.
func (e *replEnv) startMachine(t *testing.T, machine string) []RegisterReq {
	t.Helper()
	mk := func(addr string, role chunkserver.Role) RegisterReq {
		var store *blockstore.Store
		var jset *journal.Set
		if role == chunkserver.RolePrimary {
			store = blockstore.New(simdisk.NewSSD(fastSSD(), clock.Realtime), 0)
		} else {
			hdd := simdisk.NewHDD(fastHDD(), clock.Realtime)
			store = blockstore.New(hdd, util.AlignDown(hdd.Size()/2, util.ChunkSize))
			jset = journal.NewSet(clock.Realtime, store, journal.DefaultConfig())
			jset.AddSSDJournal(addr+"-j", simdisk.NewSSD(fastSSD(), clock.Realtime), 0, 64*util.MiB)
			jset.Start()
		}
		srv := chunkserver.New(chunkserver.Config{
			Addr: addr, Clock: clock.Realtime,
			Dialer:      e.net.Dialer(addr, transport.NodeConfig{}),
			ReplTimeout: time.Second,
			MasterAddrs: append([]string(nil), e.addrs...),
		}, store, jset)
		l, err := e.net.Listen(addr, transport.NodeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		srv.Serve(l)
		e.closer = append(e.closer, srv.Close)
		return RegisterReq{Addr: addr, Machine: machine, SSD: role == chunkserver.RolePrimary, Capacity: store.Capacity()}
	}
	return []RegisterReq{mk(machine+"/ssd", chunkserver.RolePrimary), mk(machine+"/hdd", chunkserver.RoleBackup)}
}

// callOn drives one master's RPC handler directly.
func callOn(t *testing.T, m *Master, op proto.Op, req, out any) proto.Status {
	t.Helper()
	var payload []byte
	if req != nil {
		payload, _ = json.Marshal(req)
	}
	resp := m.Handle(&proto.Message{Op: op, Payload: payload})
	if resp.Status == proto.StatusOK && out != nil && len(resp.Payload) > 0 {
		if err := json.Unmarshal(resp.Payload, out); err != nil {
			t.Fatalf("unmarshal %T: %v", out, err)
		}
	}
	return resp.Status
}

// quiesce waits (in real time) until every live master's log has caught up
// with the primary's.
func (e *replEnv) quiesce(t *testing.T, primary *Master, standbys ...*Master) {
	t.Helper()
	want := primary.LogSeq()
	deadline := time.Now().Add(10 * time.Second)
	for {
		caught := true
		for _, s := range standbys {
			if s.LogSeq() != want {
				caught = false
				break
			}
		}
		if caught {
			return
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("standbys never caught up to seq %d", want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitPromoted polls until one of standbys claims primacy, which a monitor
// does a PrimacyTTL or so after it last heard from the primary, and returns
// it.
func waitPromoted(t *testing.T, standbys ...*Master) *Master {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		for _, s := range standbys {
			if s.IsPrimary() {
				return s
			}
		}
		if !time.Now().Before(deadline) {
			t.Fatal("no standby promoted")
		}
	}
}

// promote has standby take over at once, as its monitor would once the
// primary had been silent for a PrimacyTTL, and returns it. The other live
// standbys have been silent as long, so they promise it the new epoch, but
// not long enough to probe themselves.
func promote(t *testing.T, standby *Master, others ...*Master) *Master {
	t.Helper()
	for _, o := range others {
		o.mu.Lock()
		o.lastHeard = o.cfg.Clock.Now().Add(-o.cfg.PrimacyTTL)
		o.mu.Unlock()
	}
	standby.mu.Lock()
	standby.lastHeard = time.Time{}
	standby.mu.Unlock()
	standby.maybePromote()
	if !standby.IsPrimary() {
		t.Fatalf("%s did not promote", standby.Addr())
	}
	return standby
}

// snapJSON renders a snapshot for comparison, map keys in order.
func snapJSON(t *testing.T, s StateSnapshot) string {
	t.Helper()
	b, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestPromotedStandbyStateMatchesPrimary is the golden-state test: after
// metadata traffic of every kind (metaOpTable, in order) quiesces, every
// standby's replicated state is byte-identical to the primary's; and the
// standby promoted after the primary's death serves exactly the pre-crash
// metadata at a higher epoch.
func TestPromotedStandbyStateMatchesPrimary(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newReplEnvTTL(t, 3, 4, 3*time.Second)
		defer cleanup()
		primary := e.masters[0]
		o := newMetaOps(t, e, 1)
		for _, op := range metaOpTable {
			op.run(o)
		}
		seen := kindsIn(logOf(primary))
		kinds := reflect.TypeOf(entry{})
		for i := 1; i < kinds.NumField(); i++ { // field 0 is the entry's Pos
			if kind := kinds.Field(i).Name; !seen[kind] {
				t.Errorf("the op table produced no %s entry", kind)
			}
		}
		before := e.requireConverged(t, primary, e.masters[1], e.masters[2])
		if n := e.reg.Counter(MetricMasterReplayRefused).Load(); n != 0 {
			t.Errorf("standbys in step refused %d batches", n)
		}

		// Kill the primary; a standby must promote with the exact pre-crash
		// state at a higher epoch.
		e.net.Crash("master")
		primary.Close()
		promoted := promote(t, e.masters[1], e.masters[2])
		if got := promoted.Epoch(); got < 2 {
			t.Fatalf("promoted epoch = %d, want >= 2", got)
		}
		snap := promoted.Snapshot()
		snap.LogSeq-- // the promotion's own entry, which changes nothing else
		if got := snapJSON(t, snap); got != before {
			t.Fatalf("promoted state diverged:\npre-crash:\n%s\npromoted:\n%s", before, got)
		}
	})
}

// TestLeaseExpiryRacesRenewReplicated drives the lease lifecycle on a
// replicated primary: an expired lease can be reclaimed by its holder's
// renew, a rival's open after expiry wins the lease, and the old holder's
// late renew is then refused.
func TestLeaseExpiryRacesRenewReplicated(t *testing.T) {
	clock.Test(t, func() {
		const lease = 100 * time.Millisecond
		e, cleanup := newReplEnvTTL(t, 2, 3, 100*time.Millisecond, func(c *Config) { c.LeaseTTL = lease })
		defer cleanup()
		primary := e.masters[0]

		var meta VDiskMeta
		if st := callOn(t, primary, proto.MOpCreateVDisk,
			CreateVDiskReq{Name: "lease-race", Size: util.ChunkSize}, &meta); st != proto.StatusOK {
			t.Fatalf("create: %s", st)
		}
		if st := callOn(t, primary, proto.MOpOpenVDisk,
			OpenVDiskReq{Name: "lease-race", Client: "a"}, nil); st != proto.StatusOK {
			t.Fatalf("open: %s", st)
		}

		// Expired-but-unclaimed: the holder's own renew reclaims the lease.
		clock.Realtime.Sleep(lease)
		if st := callOn(t, primary, proto.MOpRenewLease,
			LeaseReq{ID: meta.ID, Client: "a"}, nil); st != proto.StatusOK {
			t.Fatalf("holder reclaim-renew after expiry: %s", st)
		}
		// Rival renew while the reclaimed lease is live: refused.
		if st := callOn(t, primary, proto.MOpRenewLease,
			LeaseReq{ID: meta.ID, Client: "b"}, nil); st != proto.StatusLeaseHeld {
			t.Fatalf("rival renew on live lease: %s, want lease-held", st)
		}

		// Expiry again; a rival's open now wins the lease...
		clock.Realtime.Sleep(lease)
		if st := callOn(t, primary, proto.MOpOpenVDisk,
			OpenVDiskReq{Name: "lease-race", Client: "b"}, nil); st != proto.StatusOK {
			t.Fatalf("rival open after expiry: %s", st)
		}
		// ...and the old holder's late renew must lose.
		if st := callOn(t, primary, proto.MOpRenewLease,
			LeaseReq{ID: meta.ID, Client: "a"}, nil); st != proto.StatusLeaseHeld {
			t.Fatalf("stale holder renew: %s, want lease-held", st)
		}
	})
}

// TestRenewalLogsNothing: a renewal by the lease's holder moves the
// primary's soft end and commits nothing, so N renewals leave every master's
// log where the grant left it — and the lease they renewed still holds.
func TestRenewalLogsNothing(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newReplEnvTTL(t, 3, 3, 3*time.Second)
		defer cleanup()
		primary := e.masters[0]
		var meta VDiskMeta
		if st := callOn(t, primary, proto.MOpCreateVDisk,
			CreateVDiskReq{Name: "d", Size: util.ChunkSize}, &meta); st != proto.StatusOK {
			t.Fatalf("create: %s", st)
		}
		if st := callOn(t, primary, proto.MOpOpenVDisk,
			OpenVDiskReq{Name: "d", Client: "a"}, nil); st != proto.StatusOK {
			t.Fatalf("open: %s", st)
		}
		e.quiesce(t, primary, e.masters[1:]...)
		seq := primary.LogSeq()
		for i := 0; i < 10; i++ {
			if st := callOn(t, primary, proto.MOpRenewLease,
				LeaseReq{ID: meta.ID, Client: "a"}, nil); st != proto.StatusOK {
				t.Fatalf("renew %d: %s", i, st)
			}
		}
		if st := callOn(t, primary, proto.MOpOpenVDisk,
			OpenVDiskReq{Name: "d", Client: "b"}, nil); st != proto.StatusLeaseHeld {
			t.Errorf("rival open of a renewed lease: %s, want lease-held", st)
		}
		clock.Realtime.Sleep(time.Second) // a shipper heartbeat carries whatever was appended
		for _, m := range e.masters {
			if got := m.LogSeq(); got != seq {
				t.Errorf("%s: log at seq %d after 10 renewals, want %d", m.Addr(), got, seq)
			}
		}
	})
}

// TestPromotionGivesHeldLeasesOneTTL: a promoted standby never saw the
// holder's renewals — they are not logged — so it gives every held lease one
// LeaseTTL from the promotion: a rival's open is refused until that TTL has
// passed with no renewal, and granted after.
func TestPromotionGivesHeldLeasesOneTTL(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newReplEnvTTL(t, 3, 3, 3*time.Second)
		defer cleanup()
		primary := e.masters[0]
		var meta VDiskMeta
		if st := callOn(t, primary, proto.MOpCreateVDisk,
			CreateVDiskReq{Name: "d", Size: util.ChunkSize}, &meta); st != proto.StatusOK {
			t.Fatalf("create: %s", st)
		}
		if st := callOn(t, primary, proto.MOpOpenVDisk,
			OpenVDiskReq{Name: "d", Client: "a"}, nil); st != proto.StatusOK {
			t.Fatalf("open: %s", st)
		}
		e.quiesce(t, primary, e.masters[1:]...)
		// Past the grant's TTL, held up by a renewal the standby never hears of.
		clock.Realtime.Sleep(replLeaseTTL / 2)
		if st := callOn(t, primary, proto.MOpRenewLease,
			LeaseReq{ID: meta.ID, Client: "a"}, nil); st != proto.StatusOK {
			t.Fatalf("renew: %s", st)
		}
		clock.Realtime.Sleep(replLeaseTTL / 2)

		e.net.Crash("master")
		primary.Close()
		promoted := promote(t, e.masters[1], e.masters[2])
		if st := callOn(t, promoted, proto.MOpOpenVDisk,
			OpenVDiskReq{Name: "d", Client: "b"}, nil); st != proto.StatusLeaseHeld {
			t.Fatalf("rival open right after the promotion: %s, want lease-held", st)
		}
		clock.Realtime.Sleep(replLeaseTTL)
		if st := callOn(t, promoted, proto.MOpOpenVDisk,
			OpenVDiskReq{Name: "d", Client: "b"}, nil); st != proto.StatusOK {
			t.Fatalf("rival open a TTL after the promotion with no renewal: %s, want granted", st)
		}
		if got := promoted.Snapshot().Leases[meta.ID]; got != "b" {
			t.Errorf("lease held by %q, want b", got)
		}
	})
}

// TestOpenRacesFailover checks the lease survives a primary crash: the
// lease granted by the old primary is enforced by the promoted standby
// (a rival open is refused), while the legitimate holder's renew loop
// carries on against the new primary.
func TestOpenRacesFailover(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newReplEnv(t, 3, 3)
		defer cleanup()
		primary := e.masters[0]

		var meta VDiskMeta
		if st := callOn(t, primary, proto.MOpCreateVDisk,
			CreateVDiskReq{Name: "failover-lease", Size: util.ChunkSize}, &meta); st != proto.StatusOK {
			t.Fatalf("create: %s", st)
		}
		if st := callOn(t, primary, proto.MOpOpenVDisk,
			OpenVDiskReq{Name: "failover-lease", Client: "a"}, nil); st != proto.StatusOK {
			t.Fatalf("open: %s", st)
		}
		e.quiesce(t, primary, e.masters[1:]...)

		e.net.Crash("master")
		primary.Close()
		promoted := waitPromoted(t, e.masters[1:]...)

		// The lease shipped before the crash: a rival cannot steal it on the
		// new primary.
		if st := callOn(t, promoted, proto.MOpOpenVDisk,
			OpenVDiskReq{Name: "failover-lease", Client: "b"}, nil); st != proto.StatusLeaseHeld {
			t.Fatalf("rival open on promoted master: %s, want lease-held", st)
		}
		// The holder's renew keeps working across the failover.
		if st := callOn(t, promoted, proto.MOpRenewLease,
			LeaseReq{ID: meta.ID, Client: "a"}, nil); st != proto.StatusOK {
			t.Fatalf("holder renew on promoted master: %s", st)
		}
		// Standby-side sanity: the deposed address answers nothing; the
		// promoted master is the only primary left.
		if promoted.Epoch() < 2 {
			t.Fatalf("promoted epoch = %d, want >= 2", promoted.Epoch())
		}
	})
}

// TestConcurrentCommitsAwaitTheirMajority: handlers on many goroutines
// commit at once, each awaiting its own entry outside the lock while the
// shippers' acks wake them; every commit is answered OK, and the standbys
// end holding the primary's state. Run it with -race.
func TestConcurrentCommitsAwaitTheirMajority(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newReplEnvTTL(t, 3, 3, 3*time.Second)
		defer cleanup()
		primary := e.masters[0]
		const workers, rounds = 8, 5
		for w := range workers {
			if st := callOn(t, primary, proto.MOpCreateVDisk,
				CreateVDiskReq{Name: fmt.Sprintf("d%d", w), Size: util.ChunkSize}, nil); st != proto.StatusOK {
				t.Fatalf("create: %s", st)
			}
		}
		errs := make(chan string, workers)
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				name, client := fmt.Sprintf("d%d", w), fmt.Sprintf("c%d", w)
				for range rounds {
					var meta VDiskMeta
					open, _ := jsonBody(OpenVDiskReq{Name: name, Client: client})
					resp := primary.Handle(&proto.Message{Op: proto.MOpOpenVDisk, Payload: open})
					if resp.Status != proto.StatusOK || json.Unmarshal(resp.Payload, &meta) != nil {
						errs <- fmt.Sprintf("open %s: %s", name, resp.Status)
						return
					}
					closing, _ := jsonBody(LeaseReq{ID: meta.ID, Client: client})
					resp = primary.Handle(&proto.Message{Op: proto.MOpCloseVDisk, Payload: closing})
					if resp.Status != proto.StatusOK {
						errs <- fmt.Sprintf("close %s: %s", name, resp.Status)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		e.requireConverged(t, primary, e.masters[1:]...)
	})
}

// TestReporterNeverToldAnUnheldView: a primary master cut off from both
// standbys runs a view change for a chunk whose backup died (three machines:
// the chunk goes on degraded, with no fill to wait for). It seals and
// installs the new view on the chunk servers and applies it to its own
// state, and no majority comes to hold the record. A report that joins the view change in flight is refused,
// not answered with that view: the master that promotes next records the
// old one, and a client writing in the unheld view would reach a replica
// that a seal of the old view's members misses.
func TestReporterNeverToldAnUnheldView(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newReplEnvTTL(t, 3, 3, time.Second)
		defer cleanup()
		primary := e.masters[0]
		var meta VDiskMeta
		if st := callOn(t, primary, proto.MOpCreateVDisk,
			CreateVDiskReq{Name: "d", Size: util.ChunkSize}, &meta); st != proto.StatusOK {
			t.Fatalf("create: %s", st)
		}
		e.quiesce(t, primary, e.masters[1:]...)
		e.net.Partition("master", "master-1")
		e.net.Partition("master", "master-2")
		dead := meta.Chunks[0].Replicas[2].Addr
		e.net.Crash(dead)
		first := make(chan error, 1)
		go func() {
			_, err := primary.RecoverChunk(meta.ID, 0, dead, 0)
			first <- err
		}()
		for primary.Snapshot().VDisks[meta.ID].Chunks[0].View == meta.Chunks[0].View {
			select {
			case err := <-first:
				t.Fatalf("view change ended before its record was applied: %v", err)
			case <-time.After(time.Millisecond):
			}
		}
		cm, err := primary.RecoverChunk(meta.ID, 0, dead, 0)
		if err == nil {
			t.Errorf("a report during the view change was answered with view %d, which no majority holds", cm.View)
		}
		if err := <-first; !errors.Is(err, util.ErrNoQuorum) {
			t.Errorf("view change of a master cut off from its standbys: %v, want %v", err, util.ErrNoQuorum)
		}
	})
}
