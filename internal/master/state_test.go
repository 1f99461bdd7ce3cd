package master

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/clock"
	"ursa/internal/coldtier"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/redundancy"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// metaOps drives metadata mutations against a replEnv's primary p. Every op
// draws its target from r, so a seed fixes the sequence.
type metaOps struct {
	t    *testing.T
	e    *replEnv
	p    *Master
	r    *util.Rand
	op   *opctx.Op
	next int // suffix of the next name handed out
}

func newMetaOps(t *testing.T, e *replEnv, seed uint64) *metaOps {
	o := &metaOps{t: t, e: e, p: e.masters[0], r: util.NewRand(seed), op: opctx.New(clock.Realtime, time.Hour)}
	e.closer = append(e.closer, o.op.Release)
	return o
}

func (o *metaOps) name(prefix string) string {
	o.next++
	return fmt.Sprintf("%s%d", prefix, o.next)
}

// call sends one RPC to the primary. A refusal a well-formed request can
// earn from the state it meets (lease held, no such vdisk, no room, name
// taken) is an outcome; anything else fails the test.
func (o *metaOps) call(op proto.Op, req, out any) proto.Status {
	o.t.Helper()
	st := callOn(o.t, o.p, op, req, out)
	switch st {
	case proto.StatusOK, proto.StatusLeaseHeld, proto.StatusNotFound, proto.StatusQuota, proto.StatusExists:
	default:
		o.t.Fatalf("op %d %+v: %s", op, req, st)
	}
	return st
}

// pickVDisk draws a vdisk that satisfies want.
func (o *metaOps) pickVDisk(want func(VDiskMeta) bool) (VDiskMeta, bool) {
	var ids []int
	all := o.p.Snapshot().VDisks
	for id, vd := range all {
		if want == nil || want(vd) {
			ids = append(ids, int(id))
		}
	}
	if len(ids) == 0 {
		return VDiskMeta{}, false
	}
	sort.Ints(ids)
	return all[uint32(ids[o.r.Intn(len(ids))])], true
}

func (o *metaOps) pickSnapshot() (string, bool) {
	var names []string
	for name := range o.p.Snapshot().Snapshots {
		names = append(names, name)
	}
	if len(names) == 0 {
		return "", false
	}
	sort.Strings(names)
	return names[o.r.Intn(len(names))], true
}

func isCold(vd VDiskMeta) bool   { return len(vd.Chunks[0].Cold) > 0 }
func isMirror(vd VDiskMeta) bool { return !vd.Redundancy.IsRS() }

// coldRefs counts the cold refs m's chunks list.
func coldRefs(m *Master) (n int) {
	for _, vd := range m.Snapshot().VDisks {
		for _, cm := range vd.Chunks {
			n += len(cm.Cold)
		}
	}
	return n
}

func (o *metaOps) client() string { return fmt.Sprintf("tenant-%d", o.r.Intn(2)) }

func (o *metaOps) create(req CreateVDiskReq) {
	req.Name = o.name("vd")
	o.call(proto.MOpCreateVDisk, req, nil)
}

// metaOpTable lists one op per way the metadata can change. Run in order on a
// fresh cluster of four machines, every op finds a target and the log ends up
// holding every entry kind.
var metaOpTable = []struct {
	name string
	run  func(o *metaOps)
}{
	{"create", func(o *metaOps) { o.create(CreateVDiskReq{Size: 2 * util.ChunkSize}) }},
	{"create-striped", func(o *metaOps) {
		o.create(CreateVDiskReq{Size: 2 * util.ChunkSize, StripeGroup: 2})
	}},
	{"create-rs", func(o *metaOps) {
		o.create(CreateVDiskReq{Size: util.ChunkSize, Redundancy: redundancy.Spec{Kind: redundancy.KindRS, N: 2, M: 1}})
	}},
	{"create-unplaceable", func(o *metaOps) {
		if st := o.call(proto.MOpCreateVDisk, CreateVDiskReq{
			Name: o.name("big"), Size: 2 * util.ChunkSize, Replication: 64,
		}, nil); st != proto.StatusQuota {
			o.t.Fatalf("unplaceable create: %s, want quota", st)
		}
	}},
	{"open", func(o *metaOps) {
		if vd, ok := o.pickVDisk(nil); ok {
			o.call(proto.MOpOpenVDisk, OpenVDiskReq{Name: vd.Name, Client: o.client()}, nil)
		}
	}},
	{"renew", func(o *metaOps) {
		if vd, ok := o.pickVDisk(nil); ok {
			o.call(proto.MOpRenewLease, LeaseReq{ID: vd.ID, Client: o.client()}, nil)
		}
	}},
	{"close", func(o *metaOps) {
		held := o.p.Snapshot().Leases
		if vd, ok := o.pickVDisk(func(vd VDiskMeta) bool { return held[vd.ID] != "" }); ok {
			o.call(proto.MOpCloseVDisk, LeaseReq{ID: vd.ID, Client: held[vd.ID]}, nil)
		}
	}},
	// A real view change: a backup of a mirrored chunk dies, the master
	// re-replicates it elsewhere, the server comes back.
	{"recover", func(o *metaOps) {
		vd, ok := o.pickVDisk(isMirror)
		if !ok {
			return
		}
		idx := uint32(o.r.Intn(len(vd.Chunks)))
		if len(vd.Chunks[idx].Replicas) < 2 {
			return // an earlier recovery found no replacement and went on degraded
		}
		dead := vd.Chunks[idx].Replicas[1].Addr
		o.e.net.Crash(dead)
		cm, err := o.p.RecoverChunk(vd.ID, idx, dead, 0)
		o.e.net.Restart(dead)
		// The master's pooled connection to the server died with it and is
		// only noticed, and replaced, on its next use: spend that use here.
		send(o.p, dead, &proto.Message{Op: proto.OpNop}, time.Second)
		if err != nil {
			o.t.Fatalf("recover c%d.%d: %v", vd.ID, idx, err)
		}
		if cm.View != vd.Chunks[idx].View+2 { // the seal, then the install
			o.t.Fatalf("recover c%d.%d: view %d, want %d", vd.ID, idx, cm.View, vd.Chunks[idx].View+2)
		}
	}},
	// A snapshot with extents to clone: a flush's shape, one chunk whose
	// three extents fill a fresh segment range, written by hand (the vdisks
	// here hold no data to flush) and committed straight through the commit
	// path.
	{"snapshot-by-hand", func(o *metaOps) {
		refs := flushSegmentAt(o.t, o.p, o.op, allocSegs(o.t, o.p), 3)
		id := o.p.Snapshot().NextID + 1
		commit(o.t, o.p, entry{PutSnapshot: &entryPutSnapshot{NextID: id, Meta: SnapshotMeta{
			ID: id, Name: o.name("hand"), Size: util.ChunkSize, StripeGroup: 1, StripeUnit: defaultStripeUnit,
			Chunks: [][]coldtier.ExtentRef{refs},
		}}})
	}},
	{"clone", func(o *metaOps) {
		if snap, ok := o.pickSnapshot(); ok {
			o.call(proto.MOpCloneFromSnapshot, CloneReq{Snapshot: snap, Name: o.name("clone")}, nil)
		}
	}},
	// A reconcile pass deletes the segments no table names; a pass that
	// clears no cold refs commits nothing.
	{"gc", func(o *metaOps) {
		seq, cold := o.p.LogSeq(), coldRefs(o.p)
		if _, err := o.p.Reconcile(); err != nil {
			o.t.Fatalf("gc: %v", err)
		}
		if got := o.p.LogSeq(); got != seq && coldRefs(o.p) == cold {
			o.t.Fatalf("a pass that cleared no cold refs moved the log from seq %d to %d", seq, got)
		}
	}},
	// A reconcile pass found every replica of a cold chunk drained: the
	// entry it commits clears the chunk's cold refs.
	{"materialize", func(o *metaOps) {
		if vd, ok := o.pickVDisk(isCold); ok {
			commit(o.t, o.p, entry{Materialized: &entryMaterialized{VDisk: vd.ID, Index: 0}})
		}
	}},
	// A real snapshot: segment IDs allocated, every primary flushed. Not of a
	// clone: "materialize" below only tells the master the replicas fetched
	// their extents, so a clone's replicas cannot be read.
	{"snapshot", func(o *metaOps) {
		if vd, ok := o.pickVDisk(func(vd VDiskMeta) bool { return isMirror(vd) && strings.HasPrefix(vd.Name, "vd") }); ok {
			o.call(proto.MOpSnapshot, SnapshotReq{VDisk: vd.Name, Name: o.name("snap")}, nil)
		}
	}},
	{"delete-snapshot", func(o *metaOps) {
		if snap, ok := o.pickSnapshot(); ok {
			o.call(proto.MOpDeleteSnapshot, SnapshotReq{Name: snap}, nil)
		}
	}},
	{"delete", func(o *metaOps) {
		if vd, ok := o.pickVDisk(nil); ok {
			o.call(proto.MOpDeleteVDisk, GetVDiskReq{Name: vd.Name}, nil)
		}
	}},
	{"register", func(o *metaOps) {
		machine := o.name("late")
		for _, r := range o.e.startMachine(o.t, machine) {
			o.call(proto.MOpRegister, r, nil)
		}
	}},
}

// run runs the named op of metaOpTable.
func (o *metaOps) run(name string) {
	o.t.Helper()
	for _, op := range metaOpTable {
		if op.name == name {
			op.run(o)
			return
		}
	}
	o.t.Fatalf("no op %q", name)
}

// logOf copies m's log (the entries themselves are immutable).
func logOf(m *Master) entryBatch {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append(entryBatch(nil), m.log...)
}

// kindsIn names the entry kinds that occur in log.
func kindsIn(log entryBatch) map[string]bool {
	seen := make(map[string]bool)
	for _, e := range log {
		v := reflect.ValueOf(e)
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Pointer && !f.IsNil() {
				seen[v.Type().Field(i).Name] = true
			}
		}
	}
	return seen
}

// requireConverged waits for the standbys to catch up and requires each
// one's replicated state to be byte-identical to the primary's, which it
// returns.
func (e *replEnv) requireConverged(t *testing.T, primary *Master, standbys ...*Master) string {
	t.Helper()
	e.quiesce(t, primary, standbys...)
	want := snapJSON(t, primary.Snapshot())
	for _, s := range standbys {
		if got := snapJSON(t, s.Snapshot()); got != want {
			t.Fatalf("standby %s state diverged:\nprimary:\n%s\nstandby:\n%s", s.Addr(), want, got)
		}
	}
	return want
}

// TestFailedCreateLeavesNoTrace: a create that cannot be placed consumes no
// vdisk ID and moves no placement cursor — on the primary, where the request
// ran, or on the standbys, which never hear of it.
func TestFailedCreateLeavesNoTrace(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newReplEnvTTL(t, 3, 3, 3*time.Second)
		defer cleanup()
		primary := e.masters[0]
		if st := callOn(t, primary, proto.MOpCreateVDisk,
			CreateVDiskReq{Name: "fits", Size: 2 * util.ChunkSize}, nil); st != proto.StatusOK {
			t.Fatalf("create: %s", st)
		}
		before := e.requireConverged(t, primary, e.masters[1:]...)

		if st := callOn(t, primary, proto.MOpCreateVDisk,
			CreateVDiskReq{Name: "too-wide", Size: 2 * util.ChunkSize, Replication: 4}, nil); st != proto.StatusQuota {
			t.Fatalf("create with 4 replicas on 3 machines: %s, want quota", st)
		}
		if after := e.requireConverged(t, primary, e.masters[1:]...); after != before {
			t.Fatalf("failed create changed the state:\nbefore:\n%s\nafter:\n%s", before, after)
		}
	})
}

// TestViewInstallLeavesColdAlone: a recovery copies the chunk's metadata when
// it starts and installs a view when it ends; cold refs the materialization
// protocol cleared in between must stay cleared — GC is by then free to
// delete the segments they named.
func TestViewInstallLeavesColdAlone(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newReplEnvTTL(t, 3, 3, 3*time.Second)
		defer cleanup()
		primary := e.masters[0]
		o := newMetaOps(t, e, 1)
		o.run("snapshot-by-hand")
		o.run("clone") // chunk 0 starts with the snapshot's refs as its cold table
		clone, ok := o.pickVDisk(isCold)
		if !ok {
			t.Fatal("clone has no cold refs")
		}
		seg := clone.Chunks[0].Cold[0].Seg
		o.run("delete-snapshot") // the clone's table is the last to name the segment

		stale := &Recovery{} // what recovery holds
		if _, err := primary.record(stale, clone.ID, 0); err != nil || len(stale.Meta.Cold) == 0 {
			t.Fatalf("record: %+v, %v", stale.Meta, err)
		}
		o.run("materialize") // the last replica's report clears the refs
		if _, err := primary.installView(clock.Realtime.Now(), blockstore.MakeChunkID(clone.ID, 0),
			clone.ID, 0, Action{Install: stale.Meta.Replicas, View: stale.Meta.View + 1}); err != nil {
			t.Fatal(err)
		}

		e.requireConverged(t, primary, e.masters[1:]...)
		for _, m := range e.masters {
			cm := m.Snapshot().VDisks[clone.ID].Chunks[0]
			if cm.View != 2 || len(cm.Cold) != 0 {
				t.Errorf("%s: chunk after view install: view %d, cold %+v; want view 2 and no cold refs", m.Addr(), cm.View, cm.Cold)
			}
			m.mu.Lock()
			named := m.namedSegsLocked()[seg]
			m.mu.Unlock()
			if named {
				t.Errorf("%s: segment %#x is still named", m.Addr(), seg)
			}
		}
	})
}

// TestColdReportSurvivesFailover: the entry a reconcile pass commits when
// every replica of a clone chunk has drained is replicated like any other,
// so the cleared cold refs outlive the primary that cleared them: the
// promoted standby serves the chunk without them, and its own pass, which
// finds the replicas still cold, does not bring them back.
func TestColdReportSurvivesFailover(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newReplEnvTTL(t, 3, 3, 3*time.Second)
		defer cleanup()
		primary := e.masters[0]
		o := newMetaOps(t, e, 1)
		o.run("snapshot-by-hand")
		o.run("clone")
		clone, ok := o.pickVDisk(isCold)
		if !ok {
			t.Fatal("clone has no cold refs")
		}
		o.run("materialize")
		e.quiesce(t, primary, e.masters[1:]...)

		e.net.Crash("master")
		primary.Close()
		promoted := promote(t, e.masters[1], e.masters[2])
		if _, err := promoted.Reconcile(); err != nil {
			t.Fatal(err)
		}
		if cold := promoted.Snapshot().VDisks[clone.ID].Chunks[0].Cold; len(cold) != 0 {
			t.Fatalf("the primary cleared the cold refs before the failover: still listed %+v", cold)
		}
	})
}

// loneStandby is a standby whose primary never calls: batches reach it only
// through Handle. The test defers its Close.
func loneStandby() *Master {
	net := transport.NewSimNet(clock.Realtime, 0)
	return New(Config{
		Addr: "replay", Peers: []string{"master", "replay"}, JoinStandby: true,
		Clock: clock.Realtime, Dialer: net.Dialer("replay", transport.NodeConfig{}),
		PrimacyTTL: time.Hour, // never promotes within a test
	})
}

// shipTo hands a standby one MOpReplicateLog with the given JSON-encoded
// entries and returns its ack.
func shipTo(t *testing.T, m *Master, entries string) ReplicateLogResp {
	t.Helper()
	resp := m.Handle(&proto.Message{Op: proto.MOpReplicateLog,
		Payload: []byte(`{"epoch":1,"from":"master","entries":` + entries + `}`)})
	var ack ReplicateLogResp
	if err := json.Unmarshal(resp.Payload, &ack); err != nil || resp.Status != proto.StatusOK {
		t.Fatalf("replicate log: %s, %v", resp.Status, err)
	}
	return ack
}

// TestStandbyNeverAcksUnappliedEntry: an entry a standby cannot decode, or
// whose kind it does not know, ends the batch there — the entries before it
// apply, the ack stops short of it, and a well-formed resend picks up from it.
func TestStandbyNeverAcksUnappliedEntry(t *testing.T) {
	const (
		server = `{"seq":1,"addServer":{"addr":"a/ssd","machine":"a","ssd":true}}`
		vdisk  = `{"seq":2,"putVDisk":{"meta":{"id":1,"name":"d","size":512,"chunks":[]},"nextID":1}}`
		lease  = `{"seq":3,"lease":{"id":1,"holder":"c"}}`
	)
	for name, bad := range map[string]string{
		"undecodable body": `{"seq":2,"putVDisk":"not an object"}`,
		"unknown kind":     `{"seq":2,"kindFromTheFuture":{"id":1}}`,
	} {
		t.Run(name, func(t *testing.T) {
			clock.Test(t, func() {
				m := loneStandby()
				defer m.Close()
				if ack := shipTo(t, m, "["+server+","+bad+","+lease+"]"); ack.Applied != 1 {
					t.Errorf("acked %d entries of a batch whose second is bad, want 1", ack.Applied)
				}
				if got := m.LogSeq(); got != 1 {
					t.Errorf("log holds %d entries, want 1", got)
				}
				if ack := shipTo(t, m, "["+vdisk+","+lease+"]"); ack.Applied != 3 {
					t.Errorf("well-formed resend from seq 2: applied %d, want 3", ack.Applied)
				}
				if s := m.Snapshot(); len(s.Servers) != 1 || s.Leases[1] != "c" {
					t.Errorf("state after resend: %+v", s)
				}
			})
		})
	}
}

// TestReplayRefusesCreateOverHeldState: apply refuses an entry that creates
// a vdisk over an ID or a name the state holds, or a snapshot over a held
// name; an overwrite would leave the old name on the new vdisk, or orphan the
// old vdisk under an ID no name reaches. A standby handed such an entry stops
// short of it with its state unchanged, and the primary's shipper counts the
// refusal in master-replay-refused.
func TestReplayRefusesCreateOverHeldState(t *testing.T) {
	const (
		server = `{"seq":1,"addServer":{"addr":"a/ssd","machine":"a","ssd":true}}`
		vdisk  = `{"seq":2,"putVDisk":{"meta":{"id":1,"name":"d","size":512,"chunks":[]},"nextID":1}}`
		snap   = `{"seq":3,"putSnapshot":{"meta":{"id":2,"name":"s","size":512},"nextID":2}}`
	)
	for name, bad := range map[string]string{
		"vdisk over a held ID":      `{"seq":4,"putVDisk":{"meta":{"id":1,"name":"e","size":512,"chunks":[]},"nextID":3}}`,
		"vdisk over a held name":    `{"seq":4,"putVDisk":{"meta":{"id":3,"name":"d","size":512,"chunks":[]},"nextID":3}}`,
		"snapshot over a held name": `{"seq":4,"putSnapshot":{"meta":{"id":3,"name":"s","size":512},"nextID":3}}`,
	} {
		t.Run(name, func(t *testing.T) {
			clock.Test(t, func() {
				m := loneStandby()
				defer m.Close()
				if ack := shipTo(t, m, "["+server+","+vdisk+","+snap+"]"); ack.Applied != 3 {
					t.Fatalf("setup applied %d entries, want 3", ack.Applied)
				}
				before := snapJSON(t, m.Snapshot())
				if ack := shipTo(t, m, "["+bad+"]"); ack.Applied != 3 {
					t.Errorf("applied up to seq %d, want the standby held at 3", ack.Applied)
				}
				if after := snapJSON(t, m.Snapshot()); after != before {
					t.Errorf("refused entry changed the state:\nbefore:\n%s\nafter:\n%s", before, after)
				}
			})
		})
	}
	t.Run("counted by the shipper", func(t *testing.T) {
		clock.Test(t, func() {
			e, cleanup := newReplEnvTTL(t, 3, 3, 3*time.Second)
			defer cleanup()
			primary, standby := e.masters[0], e.masters[1]
			e.quiesce(t, primary, e.masters[1:]...)
			// Diverge the standby: it alone holds a vdisk under the ID the
			// primary's next create hands out.
			standby.mu.Lock()
			id := standby.st.nextID + 1
			err := standby.st.apply(&entry{PutVDisk: &entryPutVDisk{Meta: VDiskMeta{ID: id, Name: "diverged"}, NextID: id}})
			standby.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			held := standby.LogSeq()
			refused := e.reg.Counter(MetricMasterReplayRefused)
			if st := callOn(t, primary, proto.MOpCreateVDisk,
				CreateVDiskReq{Name: "d", Size: util.ChunkSize}, nil); st != proto.StatusOK {
				t.Fatalf("create: %s", st)
			}
			for deadline := time.Now().Add(10 * time.Second); refused.Load() == 0; time.Sleep(2 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the shipper never counted the refused create")
				}
			}
			if got := standby.LogSeq(); got != held {
				t.Errorf("standby at seq %d, want it held at %d", got, held)
			}
			if vd := standby.Snapshot().VDisks[id]; vd.Name != "diverged" {
				t.Errorf("standby's vdisk %d is %q, want the one it held", id, vd.Name)
			}
		})
	})
}

// TestStandbyRefusesNonMemberBatch: a log batch from an address that is not
// another configured master is refused, whatever epoch it claims — it neither
// deposes the receiver nor wipes its state. A lone master, whose set has no
// other member, refuses every batch.
func TestStandbyRefusesNonMemberBatch(t *testing.T) {
	clock.Test(t, func() {
		standby := loneStandby()
		defer standby.Close()
		shipTo(t, standby, `[{"seq":1,"addServer":{"addr":"a/ssd","machine":"a","ssd":true}}]`)
		lone := New(Config{Addr: "master", Clock: clock.Realtime, PrimacyTTL: time.Hour})
		defer lone.Close()
		lone.AddServer("a/ssd", "a", true, util.TiB)

		for _, m := range []*Master{standby, lone} {
			before, epoch, primary := snapJSON(t, m.Snapshot()), m.Epoch(), m.IsPrimary()
			for _, from := range []string{"intruder", m.Addr()} {
				resp := m.Handle(&proto.Message{Op: proto.MOpReplicateLog,
					Payload: []byte(`{"epoch":5,"from":"` + from + `","entries":[]}`)})
				if resp.Status == proto.StatusOK {
					t.Errorf("%s took a batch from %q", m.Addr(), from)
				}
			}
			if m.Epoch() != epoch || m.IsPrimary() != primary {
				t.Errorf("%s: epoch %d, primary %v after the refused batches; want %d, %v",
					m.Addr(), m.Epoch(), m.IsPrimary(), epoch, primary)
			}
			if after := snapJSON(t, m.Snapshot()); after != before {
				t.Errorf("%s: state changed by a refused batch:\nbefore:\n%s\nafter:\n%s", m.Addr(), before, after)
			}
		}
	})
}

// TestShipperCountsRefusedReplay: a standby whose state has diverged refuses
// the entry it cannot apply and stays at the entry before it, and the
// primary's shipper counts the batches it refuses. The third master makes
// the majority that lets the primary commit.
func TestShipperCountsRefusedReplay(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newReplEnvTTL(t, 3, 3, 3*time.Second)
		defer cleanup()
		primary, standby := e.masters[0], e.masters[1]
		var meta VDiskMeta
		if st := callOn(t, primary, proto.MOpCreateVDisk,
			CreateVDiskReq{Name: "d", Size: util.ChunkSize}, &meta); st != proto.StatusOK {
			t.Fatalf("create: %s", st)
		}
		e.quiesce(t, primary, e.masters[1:]...)
		refused := e.reg.Counter(MetricMasterReplayRefused)
		if n := refused.Load(); n != 0 {
			t.Fatalf("%d batches refused by a standby in step", n)
		}

		// Diverge the standby: it alone loses the vdisk, so the lease entry the
		// primary ships next names a vdisk it does not hold.
		standby.mu.Lock()
		err := standby.st.apply(&entry{DeleteVDisk: &entryDeleteVDisk{ID: meta.ID}})
		standby.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		held := standby.LogSeq()
		if st := callOn(t, primary, proto.MOpOpenVDisk,
			OpenVDiskReq{Name: "d", Client: "c"}, nil); st != proto.StatusOK {
			t.Fatalf("open: %s", st)
		}
		for deadline := time.Now().Add(10 * time.Second); refused.Load() == 0; time.Sleep(2 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the shipper never counted the refused batch")
			}
		}
		if got := standby.LogSeq(); got != held || primary.LogSeq() != held+1 {
			t.Errorf("standby at seq %d, primary at %d; want the standby held at %d, one behind", got, primary.LogSeq(), held)
		}
	})
}

// TestLateStandbyCatchesUpInBoundedBatches: a standby that joins a primary
// holding a long log converges on the primary's state without any one
// MOpReplicateLog carrying more than shipBatchMax entries. The third master
// makes the majority while the late one is away.
func TestLateStandbyCatchesUpInBoundedBatches(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newReplEnvTTL(t, 3, 3, 3*time.Second)
		defer cleanup()
		primary := e.masters[0]
		e.net.Crash("master-1")
		e.masters[1].Close()

		var meta VDiskMeta
		if st := callOn(t, primary, proto.MOpCreateVDisk,
			CreateVDiskReq{Name: "d", Size: util.ChunkSize}, &meta); st != proto.StatusOK {
			t.Fatalf("create: %s", st)
		}
		// A renewal by the holder logs nothing: grow the log by grant and
		// release pairs, an open and a close.
		cycle := func() {
			if st := callOn(t, primary, proto.MOpOpenVDisk,
				OpenVDiskReq{Name: "d", Client: "c"}, nil); st != proto.StatusOK {
				t.Fatalf("open: %s", st)
			}
			if st := callOn(t, primary, proto.MOpCloseVDisk,
				LeaseReq{ID: meta.ID, Client: "c"}, nil); st != proto.StatusOK {
				t.Fatalf("close: %s", st)
			}
		}
		for primary.LogSeq() < 3*shipBatchMax+10 {
			cycle()
		}

		e.net.Restart("master-1")
		l, err := e.net.Listen("master-1", transport.NodeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		late := New(Config{
			Addr: "master-1", Peers: e.addrs, JoinStandby: true, Clock: clock.Realtime,
			Dialer: e.net.Dialer("master-1", transport.NodeConfig{}), PrimacyTTL: 3 * time.Second,
		})
		defer late.Close()
		largest := 0 // entries in the largest batch received (guarded by late.mu)
		rpc := transport.Serve(l, func(msg *proto.Message) *proto.Message {
			if msg.Op == proto.MOpReplicateLog {
				var req struct{ Entries []json.RawMessage }
				if json.Unmarshal(msg.Payload, &req) == nil {
					late.mu.Lock()
					largest = max(largest, len(req.Entries))
					late.mu.Unlock()
				}
			}
			return late.Handle(msg)
		})
		defer rpc.Close()
		cycle() // kicks the shipper, which otherwise retries a dead standby only on its heartbeat tick

		e.requireConverged(t, primary, late)
		late.mu.Lock()
		defer late.mu.Unlock()
		if largest == 0 || largest > shipBatchMax {
			t.Fatalf("largest batch carried %d entries, want 1..%d", largest, shipBatchMax)
		}
	})
}

// TestLogReplayReproducesState: the primary's state is the replay of its
// log. After a seeded random run of every kind of op, a fresh standby fed
// the primary's log — as one batch, and entry by entry — holds a state
// byte-identical to the primary's; a lone master's log, a set of one, too.
// A write to the state that bypasses commitLocked, or a state that shares
// memory with the log, breaks this.
func TestLogReplayReproducesState(t *testing.T) {
	for _, masters := range []int{2, 1} {
		t.Run(fmt.Sprintf("masters=%d", masters), func(t *testing.T) {
			clock.Test(t, func() {
				e, cleanup := newReplEnvTTL(t, masters, 4, 3*time.Second)
				defer cleanup()
				o := newMetaOps(t, e, 7) // a seed whose 60 ops log every entry kind
				for i := 0; i < 60; i++ {
					op := metaOpTable[o.r.Intn(len(metaOpTable))]
					op.run(o)
					o.requireWholeSegments(op.name)
				}
				requireReplayReproduces(t, e.requireConverged(t, o.p, e.masters[1:]...), logOf(o.p))
			})
		})
	}
}

// requireWholeSegments requires every segment to be named whole or not at
// all: each snapshot table and chunk cold table that names a segment names
// every extent the segment stores, so together they tile it. Cold GC rests
// on this — it deletes only the segments no table names and never moves a
// live extent.
func (o *metaOps) requireWholeSegments(after string) {
	o.t.Helper()
	segs, err := o.p.coldCl.ListSegments(o.op)
	if err != nil {
		o.t.Fatal(err)
	}
	size := make(map[uint64]int64, len(segs))
	for _, sg := range segs {
		size[sg.Seg] = sg.Size
	}
	check := func(table string, refs []coldtier.ExtentRef) {
		named := make(map[uint64]int64)
		for _, r := range refs {
			named[r.Seg] += r.Len
		}
		for seg, n := range named {
			if stored, ok := size[seg]; !ok || n != stored {
				o.t.Fatalf("after %s: %s names %d bytes of segment %#x, which stores %d (present %v)",
					after, table, n, seg, stored, ok)
			}
		}
	}
	s := o.p.Snapshot()
	for name, snap := range s.Snapshots {
		for i, refs := range snap.Chunks {
			check(fmt.Sprintf("snapshot %s chunk %d", name, i), refs)
		}
	}
	for id, vd := range s.VDisks {
		for i, cm := range vd.Chunks {
			check(fmt.Sprintf("chunk c%d.%d", id, i), cm.Cold)
		}
	}
}

// requireReplayReproduces feeds log to two fresh standbys, as one batch and
// entry by entry, and requires each to end in the state want.
func requireReplayReproduces(t *testing.T, want string, log entryBatch) {
	t.Helper()
	if len(log) < 40 {
		t.Fatalf("random run logged only %d entries", len(log))
	}
	t.Logf("replaying %d entries of %d kinds", len(log), len(kindsIn(log)))

	ship := func(m *Master, batch entryBatch) {
		entries, err := json.Marshal(batch)
		if err != nil {
			t.Fatal(err)
		}
		if ack := shipTo(t, m, string(entries)); ack.Applied != batch[len(batch)-1].Seq {
			t.Fatalf("replay stopped at seq %d of a batch ending at %d", ack.Applied, batch[len(batch)-1].Seq)
		}
	}
	whole, single := loneStandby(), loneStandby()
	defer whole.Close()
	defer single.Close()
	ship(whole, log)
	for i := range log {
		ship(single, log[i:i+1])
	}
	for how, m := range map[string]*Master{"one batch": whole, "entry by entry": single} {
		if got := snapJSON(t, m.Snapshot()); got != want {
			t.Errorf("replay as %s diverged:\nprimary:\n%s\nreplayed:\n%s", how, want, got)
		}
	}
}

// stateWrites lists the statements of f that write replicated state: an
// assignment, inc/dec or delete whose target is reached through
//   - a selector or variable named st (m.st.nextID++, delete(m.st.vdisks, id)), or
//   - a variable that aliases state: one bound, in the same function, from an
//     expression read off st — a state accessor's result (m.st.find, byID,
//     chunk: they return pointers into the state), an element or field of st,
//     a range over one — or from another such variable (vd.holder = …,
//     cm.Cold = nil, chunks := snap.Chunks; chunks[0] = nil).
//
// The rule is syntactic — names, not types, one function at a time — so it
// errs towards flagging: writing to a copy read straight off st is flagged
// too (copy it with a Clone method instead; a method of a value held in the
// state is taken to return a copy). What it cannot see: a state pointer handed
// to another function as an argument, or stored in a struct and written from
// there. TestLogReplayReproducesState is the gate behind it.
func stateWrites(fset *token.FileSet, f *ast.File) []token.Position {
	isSt := func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name == "st"
		case *ast.SelectorExpr:
			return x.Sel.Name == "st"
		}
		return false
	}
	// inner steps from an expression to the one it is taken of.
	inner := func(e ast.Expr) ast.Expr {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			return x.X
		case *ast.IndexExpr:
			return x.X
		case *ast.SliceExpr:
			return x.X
		case *ast.StarExpr:
			return x.X
		case *ast.ParenExpr:
			return x.X
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				return x.X
			}
		case *ast.CallExpr: // only a method of the state itself
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && isSt(sel.X) {
				return sel.X
			}
		}
		return nil
	}
	var out []token.Position
	var alias map[string]bool // per function: variables that may point into state
	isState := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return isSt(e) || ok && alias[id.Name]
	}
	// through reports whether e is reached through state: some expression it
	// is taken of is st or an alias.
	through := func(e ast.Expr) bool {
		for e = inner(e); e != nil; e = inner(e) {
			if isState(e) {
				return true
			}
		}
		return false
	}
	write := func(target ast.Expr) {
		if through(target) {
			out = append(out, fset.Position(target.Pos()))
		}
	}
	bind := func(lhs ast.Expr, aliases bool) {
		if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
			alias[id.Name] = aliases
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			alias = map[string]bool{}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				write(lhs)
				rhs := x.Rhs[0] // v, ok := … and v, err := … bind every name to the one source
				if len(x.Rhs) == len(x.Lhs) {
					rhs = x.Rhs[i]
				}
				bind(lhs, isState(rhs) || through(rhs))
			}
		case *ast.RangeStmt:
			for _, v := range []ast.Expr{x.Key, x.Value} {
				if v != nil {
					bind(v, isState(x.X) || through(x.X))
				}
			}
		case *ast.IncDecStmt:
			write(x.X)
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "delete" {
				write(x.Args[0])
			}
		}
		return true
	})
	return out
}

// clockInstants lists the paths from t to every time.Time reachable through
// its fields, elements, map keys and pointees.
func clockInstants(t reflect.Type) []string {
	var out []string
	seen := make(map[reflect.Type]bool)
	var walk func(t reflect.Type, path string)
	walk = func(t reflect.Type, path string) {
		if t == reflect.TypeOf(time.Time{}) {
			out = append(out, path)
			return
		}
		if seen[t] {
			return
		}
		seen[t] = true
		switch t.Kind() {
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				walk(t.Field(i).Type, path+"."+t.Field(i).Name)
			}
		case reflect.Pointer:
			walk(t.Elem(), path)
		case reflect.Slice, reflect.Array:
			walk(t.Elem(), path+"[]")
		case reflect.Map:
			walk(t.Key(), path+"{key}")
			walk(t.Elem(), path+"{}")
		}
	}
	walk(t, t.Name())
	return out
}

// TestNoClockInstantInReplicatedState: no time.Time is reachable from a log
// entry or from the replicated state, so a replay depends on no clock and no
// master compares an instant read on another machine's clock with its own. A
// time.Duration (VDiskMeta.LeaseTTL) is a length, not an instant. The rule is
// first run on a sample.
func TestNoClockInstantInReplicatedState(t *testing.T) {
	clock.Test(t, func() {
		type sample struct {
			When time.Time
			TTL  time.Duration
			ByID map[time.Time][]*struct{ At [2]time.Time }
			Next *sample
		}
		want := []string{"sample.When", "sample.ByID{key}", "sample.ByID{}[].At[]"}
		if got := clockInstants(reflect.TypeOf(sample{})); !reflect.DeepEqual(got, want) {
			t.Fatalf("the rule finds %v in the sample, want %v", got, want)
		}
		for _, root := range []reflect.Type{reflect.TypeOf(entry{}), reflect.TypeOf(state{})} {
			for _, path := range clockInstants(root) {
				t.Errorf("%s is a clock instant in replicated state", path)
			}
		}
	})
}

// TestStateWrittenOnlyInStateGo: outside state.go no non-test file writes
// replicated state (see stateWrites for what counts). The rule is first run
// on a sample of the writes it must catch.
func TestStateWrittenOnlyInStateGo(t *testing.T) {
	clock.Test(t, func() {
		const sample = `package master
func (m *Master) bad(id uint32, name string) {
	m.st.nextID++
	m.st.cursors.NextBackup = 0
	delete(m.st.byName, name)
	m.st.servers = append(m.st.servers, RegisterReq{})
	vd, _ := m.st.find(id, name)
	vd.holder = ""
	cm, err := m.st.chunk(id, 0)
	cm.Cold, err = nil, nil
	snap := m.st.snapshots[name]
	chunks := snap.Chunks
	chunks[0] = nil
	for _, v := range m.st.vdisks {
		v.meta.Chunks[0].View++
	}
	st := m.st
	st.nextSeg = 1
}
func (m *Master) fine(id uint32, name string) {
	m.st = newState()
	vd, _ := m.st.find(id, name)
	meta := vd.meta.Clone()
	meta.Name = name
	vd = nil
	cur := m.st.cursors
	m.place(&cur)
	var cm ChunkMeta
	cm.Cold = nil
}`
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "sample.go", sample, 0)
		if err != nil {
			t.Fatal(err)
		}
		var lines []int
		for _, pos := range stateWrites(fset, f) {
			lines = append(lines, pos.Line)
		}
		if want := []int{3, 4, 5, 6, 8, 10, 13, 15, 18}; !reflect.DeepEqual(lines, want) {
			t.Fatalf("the rule flags sample lines %v, want %v", lines, want)
		}

		files, _ := os.ReadDir(".")
		for _, fi := range files {
			if name := fi.Name(); !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || name == "state.go" {
				continue
			}
			f, err := parser.ParseFile(fset, fi.Name(), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, pos := range stateWrites(fset, f) {
				t.Errorf("%s: writes a state field outside state.go", pos)
			}
		}
	})
}
