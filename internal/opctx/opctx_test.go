package opctx

import (
	"errors"
	"testing"
	"time"

	"ursa/internal/clock"
	"ursa/internal/util"
)

func TestIDsMonotonic(t *testing.T) {
	a := New(clock.Realtime, 0)
	b := New(clock.Realtime, 0)
	if a.ID() == 0 || b.ID() <= a.ID() {
		t.Fatalf("ids not monotonic: %d then %d", a.ID(), b.ID())
	}
}

func TestDeadlineBudget(t *testing.T) {
	op := New(clock.Realtime, 10*time.Millisecond)
	if err := op.Err(); err != nil {
		t.Fatalf("fresh op: %v", err)
	}
	if _, has := op.Remaining(); !has {
		t.Fatal("op should have a deadline")
	}
	// A cap below the remaining budget wins.
	if w, ok := op.Budget(time.Millisecond); !ok || w != time.Millisecond {
		t.Fatalf("Budget(1ms) = %v, %v", w, ok)
	}
	// A cap above it is bounded by the remainder.
	if w, ok := op.Budget(time.Hour); !ok || w > 10*time.Millisecond {
		t.Fatalf("Budget(1h) = %v, %v", w, ok)
	}
	clock.Realtime.Sleep(10 * time.Millisecond)
	if _, ok := op.Budget(time.Hour); ok {
		t.Fatal("Budget on an expired op must refuse")
	}
	if err := op.Err(); !errors.Is(err, util.ErrTimeout) {
		t.Fatalf("expired Err = %v", err)
	}
}

func TestNoDeadline(t *testing.T) {
	op := Background(clock.Realtime)
	if err := op.Err(); err != nil {
		t.Fatalf("background op: %v", err)
	}
	if _, has := op.Remaining(); has {
		t.Fatal("background op has a deadline")
	}
	// No deadline, no cap: wait forever (0 by transport convention).
	if w, ok := op.Budget(0); !ok || w != 0 {
		t.Fatalf("Budget(0) = %v, %v", w, ok)
	}
	if w, ok := op.Budget(time.Second); !ok || w != time.Second {
		t.Fatalf("Budget(1s) = %v, %v", w, ok)
	}
	if op.WireBudget() != 0 {
		t.Fatalf("WireBudget = %v", op.WireBudget())
	}
}

func TestFromWire(t *testing.T) {
	clk := clock.Realtime
	parent := New(clk, 50*time.Millisecond)
	child := FromWire(clk, parent.ID(), parent.WireBudget())
	if child.ID() != parent.ID() {
		t.Fatalf("wire op id %d != %d", child.ID(), parent.ID())
	}
	rem, has := child.Remaining()
	if !has || rem <= 0 || rem > 50*time.Millisecond {
		t.Fatalf("wire op remaining = %v, %v", rem, has)
	}
	// id 0, budget 0: fresh deadline-less op.
	free := FromWire(clk, 0, 0)
	if free.ID() == 0 {
		t.Fatal("wire op with id 0 should get a fresh id")
	}
	if _, has := free.Remaining(); has {
		t.Fatal("budget-less wire op should have no deadline")
	}
}

// TestFromWireNegativeBudgetIsSpent: a budget below zero can only come from a
// foreign peer, and it means the sender's deadline has passed — not that the
// op has none.
func TestFromWireNegativeBudgetIsSpent(t *testing.T) {
	op := FromWire(clock.Realtime, 7, -time.Second)
	defer op.Release()
	if op.ID() != 7 {
		t.Errorf("id %d, want 7", op.ID())
	}
	if !errors.Is(op.Err(), util.ErrTimeout) {
		t.Errorf("Err = %v, want a timeout", op.Err())
	}
	if w, ok := op.Budget(time.Second); ok {
		t.Errorf("Budget grants %v", w)
	}
	if b := op.WireBudget(); b != time.Nanosecond {
		t.Errorf("WireBudget = %v, want the fail-fast 1ns", b)
	}
}

type sinkRec struct {
	stage string
	d     time.Duration
}

type testSink struct{ recs []sinkRec }

func (s *testSink) ObserveStage(stage string, d time.Duration) {
	s.recs = append(s.recs, sinkRec{stage, d})
}

func TestBreadcrumbs(t *testing.T) {
	sink := &testSink{}
	op := New(clock.Realtime, 0).WithSink(sink)
	op.ObserveStage(StageNet, 2*time.Millisecond)
	op.ObserveStage(StageNet, 4*time.Millisecond)
	op.ObserveStage(StagePrimarySSD, time.Millisecond)
	trail := op.Trail()
	if len(trail) != 2 {
		t.Fatalf("trail entries = %d", len(trail))
	}
	if trail[0].Stage != StageNet || trail[0].Count != 2 || trail[0].Total != 6*time.Millisecond {
		t.Fatalf("net crumb = %+v", trail[0])
	}
	if len(sink.recs) != 3 || sink.recs[2].stage != "primary-ssd" {
		t.Fatalf("sink recs = %+v", sink.recs)
	}
}

func TestStageNames(t *testing.T) {
	want := []string{"queue", "net", "primary-ssd", "backup-journal",
		"backup-jqueue", "backup-jflush", "replay", "apply-wait",
		"commit-wait", "repl-wait", "cold-fetch"}
	got := Stages()
	if len(got) != len(want) {
		t.Fatalf("stage count = %d", len(got))
	}
	for i, s := range got {
		if s.String() != want[i] {
			t.Errorf("stage %d = %q, want %q", i, s, want[i])
		}
	}
}
