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
// degraded instead. The view-change explorer (internal/viewcheck) found it.
func TestPlanRSNeverRemakesARecordedReplica(t *testing.T) {
	ok := func(version uint64) proto.ChunkResult {
		return proto.ChunkResult{Status: proto.StatusOK, Version: version, View: 1}
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
		{ok(1), ok(0), failed, ok(1)}, // s1 behind, s2 dead
		{ok(0)},                       // s1, asked again, still behind
		{failed},                      // s1's fill in place
		{ok(1)},                       // s5's fill at position 1
	}
	a := Plan(r)
	if a.Install == nil {
		t.Fatalf("next action %+v, want the install", a)
	}
	var got []string
	for _, rep := range a.Install {
		got = append(got, rep.Addr)
	}
	if want := []string{"s0", "s5", "s2", "s3"}; !slices.Equal(got, want) {
		t.Fatalf("installs %v, want %v", got, want)
	}
}
