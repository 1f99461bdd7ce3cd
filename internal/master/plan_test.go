package master

import (
	"fmt"
	"slices"
	"testing"

	"ursa/internal/proto"
	"ursa/internal/redundancy"
)

// TestPlanRSNeverRemakesARecordedReplica: an RS(2,1) view change finds
// holder s1 behind and s2 dead. s1's fill in place fails, so position 1 goes
// to the spare s5. Position 2 then needs a server too, and s1 — off the new
// list, still named by the recorded view — was the one free HDD machine: its
// create for position 2 would remake, under the recorded view, the slot the
// record still counts as segment 0, and a failed install would leave the
// view decoding segment 1 as segment 0. The plan installs with position 2
// degraded instead, above the seal. The view-change explorer
// (internal/viewcheck) found it.
func TestPlanRSNeverRemakesARecordedReplica(t *testing.T) {
	ok := func(version uint64) proto.ChunkResult {
		return proto.ChunkResult{Status: proto.StatusOK, Version: version, View: 1}
	}
	sealed := func(version uint64) proto.ChunkResult {
		return proto.ChunkResult{Status: proto.StatusOK, Version: version, View: 2}
	}
	failed := proto.ChunkResult{Status: proto.StatusError}
	r := &Recovery{Spec: redundancy.Spec{Kind: redundancy.KindRS, N: 2, M: 1}}
	for i, ssd := range []bool{true, false, false, false, true, false} {
		addr := fmt.Sprintf("s%d", i)
		r.Servers = append(r.Servers, RegisterReq{Addr: addr, Machine: "m" + addr, SSD: ssd})
		if i < 4 {
			r.Meta.Replicas = append(r.Meta.Replicas, ReplicaInfo{Addr: addr, SSD: ssd})
		}
	}
	r.Meta.View = 1
	r.Rounds = [][]proto.ChunkResult{
		{ok(1), ok(0), failed, ok(1)},             // s1 behind, s2 dead
		{sealed(1), sealed(0), failed, sealed(1)}, // the seal at view 2: s1 still behind
		{failed}, // s1's fill in place
		{ok(1)},  // s5's fill at position 1
	}
	if a := Plan(&Recovery{Spec: r.Spec, Meta: r.Meta, Servers: r.Servers, Rounds: r.Rounds[:1]}); a.View != 2 || len(a.Probe) != 4 {
		t.Fatalf("action after the first probe %+v, want the seal of all four at view 2", a)
	}
	a := Plan(r)
	if a.Install == nil || a.View != 3 {
		t.Fatalf("next action %+v, want the install at view 3", a)
	}
	var got []string
	for _, rep := range a.Install {
		got = append(got, rep.Addr)
	}
	if want := []string{"s0", "s5", "s2", "s3"}; !slices.Equal(got, want) {
		t.Fatalf("installs %v, want %v", got, want)
	}
}

// TestPlanSealsOnlyToAct: the first probe is a read. A view change seals
// the replicas it probed — at a view above the record, the reporter's and
// every view answered — only when a plan from that read would fill or
// install; a chunk whose replicas agree, or whose dead position has nowhere
// to go, moves no view.
func TestPlanSealsOnlyToAct(t *testing.T) {
	ok := func(version, view uint64) proto.ChunkResult {
		return proto.ChunkResult{Status: proto.StatusOK, Version: version, View: view}
	}
	failed := proto.ChunkResult{Status: proto.StatusError}
	for _, row := range []struct {
		name   string
		rs     bool
		report uint64 // the reporter's view
		read   []proto.ChunkResult
		seal   uint64 // 0: no seal, and nothing to do
	}{
		{"mirror agrees", false, 1, []proto.ChunkResult{ok(3, 1), ok(3, 1), ok(3, 1)}, 0},
		{"mirror laggard", false, 1, []proto.ChunkResult{ok(3, 1), ok(3, 1), ok(2, 1)}, 2},
		{"mirror reporter ahead", false, 5, []proto.ChunkResult{ok(3, 1), ok(3, 1), ok(3, 1)}, 6},
		{"mirror replica ahead", false, 0, []proto.ChunkResult{ok(3, 1), ok(3, 4), ok(3, 1)}, 5},
		{"mirror no majority", false, 1, []proto.ChunkResult{ok(3, 1), failed, failed}, 0},
		{"RS agrees", true, 1, []proto.ChunkResult{ok(3, 1), ok(3, 1), ok(3, 1), ok(3, 1)}, 0},
		{"RS holder behind", true, 1, []proto.ChunkResult{ok(3, 1), ok(3, 1), ok(2, 1), ok(3, 1)}, 2},
		{"RS dead holder, no spare", true, 1, []proto.ChunkResult{ok(3, 1), ok(3, 1), failed, ok(3, 1)}, 0},
	} {
		r := &Recovery{View: row.report, Meta: ChunkMeta{View: 1}, Rounds: [][]proto.ChunkResult{row.read}}
		for i := range row.read {
			addr := fmt.Sprintf("s%d", i)
			r.Servers = append(r.Servers, RegisterReq{Addr: addr, Machine: "m" + addr, SSD: i == 0})
			r.Meta.Replicas = append(r.Meta.Replicas, ReplicaInfo{Addr: addr, SSD: i == 0})
		}
		if row.rs {
			r.Spec = redundancy.Spec{Kind: redundancy.KindRS, N: 2, M: 1}
		}
		a := Plan(r)
		switch {
		case row.seal == 0 && (a.Probe != nil || a.Fills != nil || a.Install != nil):
			t.Errorf("%s: next action %+v, want none", row.name, a)
		case row.seal != 0 && (len(a.Probe) != len(row.read) || a.View != row.seal):
			t.Errorf("%s: next action %+v, want the seal at view %d", row.name, a, row.seal)
		}
	}
}
