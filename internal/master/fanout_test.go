package master

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ursa/internal/clock"
	"ursa/internal/proto"
	"ursa/internal/redundancy"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// peerCallsOutsideFanOut returns, for every method of a peers field called in
// f outside fanOut, "function: x.peers.Method" — SetRedial in New and
// CloseAll in Close excepted.
func peerCallsOutsideFanOut(f *ast.File) []string {
	allowed := map[[2]string]bool{{"New", "SetRedial"}: true, {"Close", "CloseAll"}: true}
	var out []string
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil || fn.Name.Name == "fanOut" {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			method, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			field, ok := method.X.(*ast.SelectorExpr)
			if !ok || field.Sel.Name != "peers" {
				return true
			}
			if !allowed[[2]string{fn.Name.Name, method.Sel.Name}] {
				out = append(out, fmt.Sprintf("%s: %s.peers.%s", fn.Name.Name, types(field.X), method.Sel.Name))
			}
			return true
		})
	}
	return out
}

// types names the receiver expression of a peers field for a message.
func types(x ast.Expr) string {
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return "…"
}

// TestMasterSendsOnlyThroughFanOut: no non-test file of package master calls
// a method of the master's peer pool outside fanOut, but New setting its
// redial policy and Close closing it: every message the master sends — a
// command, a clone, a flush, a log batch — is a queue of a fanOut. The rule is
// first run on a sample it must catch and one it must let pass.
func TestMasterSendsOnlyThroughFanOut(t *testing.T) {
	clock.Test(t, func() {
		for _, c := range []struct {
			name, src string
			want      []string
		}{
			{"a sender beside fanOut", `package x
func (m *Master) admin(addr string, msg *proto.Message) { m.peers.Call(addr, msg, 0) }`,
				[]string{"admin: m.peers.Call"}},
			{"fanOut, New and Close", `package x
func (m *Master) fanOut() { fl := m.peers.Begin(op, 1, 0); defer fl.Finish() }
func New(cfg Config) *Master { m.peers.SetRedial(policy, 2); return m }
func (m *Master) Close() { m.peers.CloseAll() }
func (m *Master) gc() { _ = coldtier.NewClient(m.peers, addr) }`, nil},
		} {
			f, err := parser.ParseFile(token.NewFileSet(), "sample.go", c.src, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := peerCallsOutsideFanOut(f); fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Fatalf("%s: the rule flags %v, want %v", c.name, got, c.want)
			}
		}

		files, err := filepath.Glob("*.go")
		if err != nil {
			t.Fatal(err)
		}
		scanned := 0
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, src, 0)
			if err != nil {
				t.Fatal(err)
			}
			scanned++
			for _, call := range peerCallsOutsideFanOut(f) {
				t.Errorf("%s: %s sends outside fanOut; make it a queue of a fanOut", path, call)
			}
		}
		if scanned < 8 {
			t.Fatalf("scanned %d files: the glob missed the package", scanned)
		}
	})
}

// TestSnapshotFlushesPrimariesAtOnce: a snapshot of a vdisk whose chunks have
// four primaries asks all four to flush at once — with each holding its flush
// for D, the snapshot returns within 2·D, where one server after another takes
// 4·D — and each primary is sent one flush.
func TestSnapshotFlushesPrimariesAtOnce(t *testing.T) {
	clock.Test(t, func() {
		const primaries, hold = 4, 200 * time.Millisecond
		ss := newSlotServers(transport.NewSimNet(clock.Realtime, 0))
		m := New(Config{
			Addr: "master", Clock: clock.Realtime, HybridMode: true, RPCTimeout: time.Second,
			Dialer: ss.net.Dialer("master", transport.NodeConfig{}), Metrics: ss.reg,
			ObjstoreAddr: "objstore", // never dialed: the slot servers answer the flushes
		})
		defer m.Close()
		stop := ss.serve(t, m, primaries)
		defer stop()
		meta, err := m.CreateVDisk(CreateVDiskReq{Name: "d", Size: 2 * primaries * util.ChunkSize})
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[string]int)
		for _, cm := range meta.Chunks {
			want[cm.Replicas[0].Addr] = 1
		}
		if len(want) != primaries {
			t.Fatalf("the vdisk's chunks have %d primaries, want %d", len(want), primaries)
		}
		ss.mu.Lock()
		ss.flushHold = hold
		ss.mu.Unlock()

		t0 := time.Now()
		snap, err := m.SnapshotVDisk("d", "snap")
		took := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Chunks) != len(meta.Chunks) {
			t.Fatalf("snapshot of %d chunks, want %d", len(snap.Chunks), len(meta.Chunks))
		}
		requireOneEach(t, "flush", ss.sent(proto.OpFlushChunks), want, len(meta.Chunks))
		if took >= 2*hold {
			t.Fatalf("snapshot took %v with %d primaries holding each flush %v: they flushed one after another", took, primaries, hold)
		}
	})
}

// TestRecoverMirrorPlacesReplacementsApart: both backups of a mirrored chunk
// die and one of them is reported. Each replacement is picked seeing the one
// picked before it, so the two are different servers on different machines,
// and the new view holds three distinct addresses.
func TestRecoverMirrorPlacesReplacementsApart(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t, 5, true)
		defer cleanup()
		meta := VDiskMeta{
			ID: 1, Name: "d", Size: util.ChunkSize, StripeGroup: 1, StripeUnit: defaultStripeUnit, LeaseTTL: 10 * time.Second,
			Chunks: []ChunkMeta{{View: 1, Replicas: []ReplicaInfo{{Addr: "m1/ssd", SSD: true}, {Addr: "m2/hdd"}, {Addr: "m3/hdd"}}}},
		}
		commit(t, e.m, entry{PutVDisk: &entryPutVDisk{Meta: meta, NextID: meta.ID}})
		if err := e.m.createChunks(meta.ID, Pos{}, meta.Chunks, redundancy.Spec{}); err != nil {
			t.Fatal(err)
		}
		e.net.Crash("m2/hdd")
		e.net.Crash("m3/hdd")

		cm, err := e.m.RecoverChunk(meta.ID, 0, "m2/hdd", 0)
		if err != nil {
			t.Fatal(err)
		}
		if cm.View != 3 || len(cm.Replicas) != 3 { // sealed at 2, installed at 3
			t.Fatalf("new view %d with replicas %+v, want view 3 with three", cm.View, cm.Replicas)
		}
		addrs, machines := make(map[string]bool), make(map[string]bool)
		for _, r := range cm.Replicas {
			machine, _, _ := strings.Cut(r.Addr, "/")
			if addrs[r.Addr] || machines[machine] {
				t.Fatalf("replicas %+v: two on one server or machine", cm.Replicas)
			}
			addrs[r.Addr], machines[machine] = true, true
			if r.Addr == "m2/hdd" || r.Addr == "m3/hdd" {
				t.Fatalf("replicas %+v: a dead backup is still in the view", cm.Replicas)
			}
		}
	})
}

// TestRecoverMirrorFillsLaggardAndReplacementAtOnce: a mirror view change
// with one lagging and one dead backup fills both in one fan-out. The
// laggard's fill is held at its server; the replacement's create must arrive
// meanwhile — a repair step that ran before the replacements were made would
// hold it for as long as the laggard's fill takes, up to its whole window.
func TestRecoverMirrorFillsLaggardAndReplacementAtOnce(t *testing.T) {
	clock.Test(t, func() {
		m, ss, cleanup := newSlotEnv(t, 4, 0, time.Second)
		defer cleanup()
		meta := VDiskMeta{
			ID: 1, Name: "d", Size: util.ChunkSize, StripeGroup: 1, StripeUnit: defaultStripeUnit, LeaseTTL: 10 * time.Second,
			Chunks: []ChunkMeta{{View: 1, Replicas: []ReplicaInfo{{Addr: "s0/ssd", SSD: true}, {Addr: "s1/hdd"}, {Addr: "s2/hdd"}}}},
		}
		commit(t, m, entry{PutVDisk: &entryPutVDisk{Meta: meta, NextID: meta.ID}})
		ss.net.Crash("s2/hdd")
		const versionH = 7
		versions := map[string]uint64{"s0/ssd": versionH, "s1/hdd": 5}
		release := make(chan struct{})
		created := make(chan string, 1)
		ss.answer = func(addr string, msg *proto.Message) *proto.Message {
			r := msg.Reply(proto.StatusOK)
			switch msg.Op {
			case proto.OpGetVersion:
				r.Version = versions[addr]
			case proto.OpFill:
				if addr == "s1/hdd" {
					<-release
				}
				r.Version = versionH
			case proto.OpCreateChunk:
				created <- addr
				return nil // the slot table answers
			default:
				return nil
			}
			return r
		}
		type result struct {
			cm  *ChunkMeta
			err error
		}
		done := make(chan result, 1)
		go func() {
			cm, err := m.RecoverChunk(meta.ID, 0, "s2/hdd", 0)
			done <- result{cm, err}
		}()
		select {
		case addr := <-created:
			if addr != "s3/hdd" {
				t.Errorf("replacement created on %s, want s3/hdd", addr)
			}
		case <-time.After(5 * time.Second):
			t.Error("no replacement was created while the laggard's fill was held: the fills ran one after another")
		}
		close(release)
		res := <-done
		if res.err != nil {
			t.Fatal(res.err)
		}
		if got := fmt.Sprint(res.cm.View, res.cm.Replicas); got != "3 [{s0/ssd true} {s1/hdd false} {s3/hdd false}]" {
			t.Fatalf("new view %s, want view 3 (sealed at 2) of s0/ssd, s1/hdd and s3/hdd", got)
		}
	})
}

// TestRecoveryStopsForDeletedVDisk: a vdisk deleted while a recovery of one
// of its chunks probes the replicas gets no create and no fill from that
// recovery — on either path — and the recovery answers not-found. A fill of
// a chunk no one will read holds its destination's chunk lock for nothing,
// and its slot is left for the reconcile pass to reap.
func TestRecoveryStopsForDeletedVDisk(t *testing.T) {
	for _, row := range []struct {
		name     string
		spec     redundancy.Spec
		replicas []ReplicaInfo
	}{
		{"mirror", redundancy.Spec{}, []ReplicaInfo{{Addr: "s0/ssd", SSD: true}, {Addr: "s1/hdd"}, {Addr: "s2/hdd"}}},
		{"RS", redundancy.Spec{Kind: redundancy.KindRS, N: 2, M: 1}, []ReplicaInfo{{Addr: "s0/ssd", SSD: true}, {Addr: "s1/hdd"}, {Addr: "s2/hdd"}}},
	} {
		t.Run(row.name, func(t *testing.T) {
			clock.Test(t, func() {
				m, ss, cleanup := newSlotEnv(t, 4, 0, time.Second)
				defer cleanup()
				meta := VDiskMeta{
					ID: 1, Name: "d", Size: util.ChunkSize, StripeGroup: 1, StripeUnit: defaultStripeUnit, LeaseTTL: 10 * time.Second,
					Redundancy: row.spec, Chunks: []ChunkMeta{{View: 1, Replicas: row.replicas}},
				}
				commit(t, m, entry{PutVDisk: &entryPutVDisk{Meta: meta, NextID: meta.ID}})
				ss.net.Crash("s2/hdd") // its replacement would be created and filled
				probed, release := make(chan struct{}, 4), make(chan struct{})
				ss.answer = func(addr string, msg *proto.Message) *proto.Message {
					if msg.Op != proto.OpGetVersion || len(msg.Payload) == 0 {
						return nil
					}
					probed <- struct{}{}
					<-release
					return msg.ReplyBatch([]proto.ChunkResult{{Status: proto.StatusOK, Version: 3, View: 1}})
				}
				done := make(chan error, 1)
				go func() {
					_, err := m.RecoverChunk(meta.ID, 0, "s2/hdd", 0)
					done <- err
				}()
				<-probed
				if _, err := m.deleteVDisk(GetVDiskReq{ID: meta.ID}); err != nil {
					t.Fatal(err)
				}
				ss.sent(proto.OpCreateChunk) // forget what came before the recovery's
				ss.sent(proto.OpFill)
				close(release)
				if err := <-done; !errors.Is(err, util.ErrNotFound) {
					t.Errorf("recovery of a deleted vdisk's chunk: %v, want not found", err)
				}
				if creates, fills := ss.sent(proto.OpCreateChunk), ss.sent(proto.OpFill); len(creates)+len(fills) != 0 {
					t.Errorf("a deleted vdisk's chunk was sent creates %v and fills %v", creates, fills)
				}
			})
		})
	}
}
