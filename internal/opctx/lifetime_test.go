package opctx

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ursa/internal/clock"
)

func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestRetainReleaseConcurrent hands one op to eight holders, each under its
// own reference, and lets the creator release first: the op must stay live —
// its own deadline, uncancelled — until the last holder lets go, and be
// recycled for the next round, which the race detector watches for a holder
// overlapping the next lease's writes.
func TestRetainReleaseConcurrent(t *testing.T) {
	const holders = 8
	base := InUse()
	for round := 0; round < 200; round++ {
		op := New(clock.Realtime, time.Hour)
		id := op.ID()
		var wg sync.WaitGroup
		for h := 0; h < holders; h++ {
			op.Retain()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer op.Release()
				if op.ID() != id || op.Err() != nil || op.Expired() || isClosed(op.Done()) {
					t.Errorf("round %d: a held op reads as id %d (want %d), err %v", round, op.ID(), id, op.Err())
				}
				if _, ok := op.Budget(time.Second); !ok {
					t.Errorf("round %d: a held op has no budget", round)
				}
				op.ObserveStage(StageNet, time.Microsecond)
			}()
		}
		op.Release() // the creator returns while the holders still run
		wg.Wait()
		if n := InUse(); n != base {
			t.Fatalf("round %d: %d ops in use after every holder released, want %d", round, n, base)
		}
	}
}

// TestReleasedOpIsPoisoned: a pointer kept past the last Release must fail
// closed — cancelled and expired, no budget to spend — rather than read as
// whatever op the pool hands the struct to next.
func TestReleasedOpIsPoisoned(t *testing.T) {
	op := New(clock.Realtime, time.Hour).WithSink(&testSink{})
	op.Release()
	if !op.Canceled() || !op.Expired() || !errors.Is(op.Err(), context.Canceled) {
		t.Errorf("released op: canceled %v, expired %v, err %v", op.Canceled(), op.Expired(), op.Err())
	}
	if !isClosed(op.Done()) {
		t.Error("released op: Done is open")
	}
	if w, ok := op.Budget(time.Second); ok {
		t.Errorf("released op grants a budget of %v", w)
	}
	if rem, has := op.Remaining(); !has || rem > 0 {
		t.Errorf("released op has %v remaining (deadline set: %v)", rem, has)
	}
	if b := op.WireBudget(); b != time.Nanosecond {
		t.Errorf("released op stamps wire budget %v, want the fail-fast 1ns", b)
	}
	op.Cancel()                                // must not close the channel the pool now owns
	op.ObserveStage(StageNet, time.Nanosecond) // no sink left to reach

	// The next lease of the same struct starts clean.
	for i := 0; i < 64; i++ {
		next := New(clock.Realtime, time.Hour)
		if next.Err() != nil || next.Expired() || isClosed(next.Done()) || len(next.Trail()) != 0 {
			t.Fatalf("fresh op: err %v, expired %v, done closed %v, trail %v",
				next.Err(), next.Expired(), isClosed(next.Done()), next.Trail())
		}
		defer next.Release()
	}
}

// TestCancelledOpRecyclesWithOpenChannel: Cancel closes the pooled op's
// channel, so the release that follows must replace it.
func TestCancelledOpRecyclesWithOpenChannel(t *testing.T) {
	for i := 0; i < 64; i++ {
		op := New(clock.Realtime, 0)
		op.Cancel()
		if !isClosed(op.Done()) {
			t.Fatal("Done open after Cancel")
		}
		op.Release()
		next := New(clock.Realtime, 0)
		if isClosed(next.Done()) || next.Canceled() {
			t.Fatal("a fresh op came out of the pool cancelled")
		}
		next.Release()
	}
}

func TestUnbalancedReleasePanics(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	op := New(clock.Realtime, 0)
	op.Release()
	mustPanic("a second Release", op.Release)
	op = New(clock.Realtime, 0) // New resets whatever the panics left behind
	op.Release()
	mustPanic("Retain of a released op", op.Retain)
}
