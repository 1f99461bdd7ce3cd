package opctx

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ursa/internal/clock"
	"ursa/internal/util"
)

// TestConcurrentStagesUnderOneLease runs the fragment fork's pattern: eight
// goroutines observe stages on one op while its creator waits for them, and
// only then does the creator release it. Every observation must land on the
// trail, and the op must be recycled for the next round, which the race
// detector watches for a goroutine overlapping the next lease's writes.
func TestConcurrentStagesUnderOneLease(t *testing.T) {
	const workers = 8
	base := InUse()
	for round := 0; round < 200; round++ {
		op := New(clock.Realtime, time.Hour)
		id := op.ID()
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				if op.ID() != id || op.Err() != nil {
					t.Errorf("round %d: a leased op reads as id %d (want %d), err %v", round, op.ID(), id, op.Err())
				}
				if _, ok := op.Budget(time.Second); !ok {
					t.Errorf("round %d: a leased op has no budget", round)
				}
				op.ObserveStage(StageNet, time.Microsecond)
			}()
		}
		wg.Wait()
		if tr := op.Trail(); len(tr) != 1 || tr[0].Count != workers {
			t.Fatalf("round %d: trail %+v, want %d net observations", round, tr, workers)
		}
		op.Release()
		if n := InUse(); n != base {
			t.Fatalf("round %d: %d ops in use after the release, want %d", round, n, base)
		}
	}
}

// TestReleasedOpIsPoisoned: a pointer kept past Release must fail closed —
// expired, no budget to spend — rather than read as whatever op the pool
// hands the struct to next.
func TestReleasedOpIsPoisoned(t *testing.T) {
	op := New(clock.Realtime, time.Hour).WithSink(&testSink{})
	op.Release()
	if !errors.Is(op.Err(), util.ErrTimeout) {
		t.Errorf("released op: err %v", op.Err())
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
	op.ObserveStage(StageNet, time.Nanosecond) // no sink left to reach

	// The next lease of the same struct starts clean.
	for i := 0; i < 64; i++ {
		next := New(clock.Realtime, time.Hour)
		if next.Err() != nil || len(next.Trail()) != 0 {
			t.Fatalf("fresh op: err %v, trail %v", next.Err(), next.Trail())
		}
		defer next.Release()
	}
}

func TestUnbalancedReleasePanics(t *testing.T) {
	op := New(clock.Realtime, 0)
	op.Release()
	defer func() {
		if recover() == nil {
			t.Error("a second Release did not panic")
		}
	}()
	op.Release()
}
