package master

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/chunkserver"
	"ursa/internal/clock"
	"ursa/internal/journal"
	"ursa/internal/proto"
	"ursa/internal/simdisk"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// replEnv is a replicated metadata service on a simnet: nMasters masters
// plus hybrid chunkserver machines, on a scaled clock so lease expiry and
// promotion timeouts can be fast-forwarded with Advance.
type replEnv struct {
	net     *transport.SimNet
	clk     *clock.Scaled
	masters []*Master
	addrs   []string
	closer  []func()
}

func newReplEnv(t *testing.T, nMasters, nMachines int) *replEnv {
	t.Helper()
	clk := clock.NewScaled(0.05)
	net := transport.NewSimNet(clk, time.Microsecond)
	e := &replEnv{net: net, clk: clk}
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
		m := New(Config{
			Addr:       addr,
			Clock:      clk,
			Dialer:     net.Dialer(addr, transport.NodeConfig{}),
			LeaseTTL:   10 * time.Second,
			RPCTimeout: 2 * time.Second,
			PrimacyTTL: 2 * time.Second,
			Peers:      append([]string(nil), e.addrs...),
			HybridMode: true,
		})
		m.Serve(l)
		e.masters = append(e.masters, m)
		e.closer = append(e.closer, m.Close)
	}

	for i := 0; i < nMachines; i++ {
		machine := fmt.Sprintf("rm%d", i)
		mk := func(addr string, role chunkserver.Role) {
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
				MasterAddrs: append([]string(nil), e.addrs...),
			}, store, jset)
			l, err := net.Listen(addr, transport.NodeConfig{})
			if err != nil {
				t.Fatal(err)
			}
			srv.Serve(l)
			e.closer = append(e.closer, srv.Close)
			e.masters[0].AddServer(addr, machine, role == chunkserver.RolePrimary)
		}
		mk(machine+"/ssd", chunkserver.RolePrimary)
		mk(machine+"/hdd", chunkserver.RoleBackup)
	}
	t.Cleanup(func() {
		for i := len(e.closer) - 1; i >= 0; i-- {
			e.closer[i]()
		}
	})
	return e
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

// waitPromoted polls until one of the candidate standbys claims primacy
// and returns it. Rank staggering makes the lowest rank the likely winner,
// but it is a tiebreaker, not a guarantee — under scheduler load a higher
// rank can win and the lower ranks adopt its claim.
func waitPromoted(t *testing.T, candidates ...*Master) *Master {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, m := range candidates {
			if m.IsPrimary() {
				return m
			}
		}
		if !time.Now().Before(deadline) {
			t.Fatal("no standby promoted")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// snapJSON renders a snapshot for comparison: JSON strips time.Time
// monotonic readings (the primary's in-memory lease expiries carry them,
// the standby's round-tripped copies do not) and orders map keys.
func snapJSON(t *testing.T, s StateSnapshot) string {
	t.Helper()
	b, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestPromotedStandbyStateMatchesPrimary is the golden-state test: after a
// burst of metadata traffic quiesces, every standby's replicated state is
// byte-identical to the primary's; and the standby promoted after the
// primary's death serves exactly the pre-crash metadata at a higher epoch.
func TestPromotedStandbyStateMatchesPrimary(t *testing.T) {
	e := newReplEnv(t, 3, 3)
	primary := e.masters[0]

	for i := 0; i < 4; i++ {
		var meta VDiskMeta
		if st := callOn(t, primary, proto.MOpCreateVDisk, CreateVDiskReq{
			Name: fmt.Sprintf("vd%d", i), Size: 2 * util.ChunkSize,
		}, &meta); st != proto.StatusOK {
			t.Fatalf("create vd%d: %s", i, st)
		}
	}
	var opened VDiskMeta
	if st := callOn(t, primary, proto.MOpOpenVDisk,
		OpenVDiskReq{Name: "vd1", Client: "tenant-a"}, &opened); st != proto.StatusOK {
		t.Fatalf("open: %s", st)
	}
	if st := callOn(t, primary, proto.MOpDeleteVDisk,
		GetVDiskReq{Name: "vd3"}, nil); st != proto.StatusOK {
		t.Fatalf("delete: %s", st)
	}

	e.quiesce(t, primary, e.masters[1], e.masters[2])
	before := snapJSON(t, primary.Snapshot())
	for i, s := range e.masters[1:] {
		if got := snapJSON(t, s.Snapshot()); got != before {
			t.Fatalf("standby %d state diverged:\nprimary:\n%s\nstandby:\n%s", i+1, before, got)
		}
	}

	// Kill the primary; a standby must promote with the exact pre-crash
	// state at a higher epoch.
	e.net.Crash("master")
	primary.Close()
	e.clk.Advance(5 * time.Second)
	promoted := waitPromoted(t, e.masters[1], e.masters[2])
	if got := promoted.Epoch(); got < 2 {
		t.Fatalf("promoted epoch = %d, want >= 2", got)
	}
	if got := snapJSON(t, promoted.Snapshot()); got != before {
		t.Fatalf("promoted state diverged:\npre-crash:\n%s\npromoted:\n%s", before, got)
	}
}

// TestLeaseExpiryRacesRenewReplicated drives the lease lifecycle on a
// replicated primary under a scaled clock: an expired lease can be
// reclaimed by its holder's renew, a rival's open after expiry wins the
// lease, and the old holder's late renew is then refused.
func TestLeaseExpiryRacesRenewReplicated(t *testing.T) {
	e := newReplEnv(t, 2, 3)
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
	e.clk.Advance(11 * time.Second)
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
	e.clk.Advance(11 * time.Second)
	if st := callOn(t, primary, proto.MOpOpenVDisk,
		OpenVDiskReq{Name: "lease-race", Client: "b"}, nil); st != proto.StatusOK {
		t.Fatalf("rival open after expiry: %s", st)
	}
	// ...and the old holder's late renew must lose.
	if st := callOn(t, primary, proto.MOpRenewLease,
		LeaseReq{ID: meta.ID, Client: "a"}, nil); st != proto.StatusLeaseHeld {
		t.Fatalf("stale holder renew: %s, want lease-held", st)
	}
}

// TestOpenRacesFailover checks the lease survives a primary crash: the
// lease granted by the old primary is enforced by the promoted standby
// (a rival open is refused), while the legitimate holder's renew loop
// carries on against the new primary.
func TestOpenRacesFailover(t *testing.T) {
	e := newReplEnv(t, 2, 3)
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
	e.quiesce(t, primary, e.masters[1])

	e.net.Crash("master")
	primary.Close()
	e.clk.Advance(5 * time.Second)
	promoted := waitPromoted(t, e.masters[1])

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
}
