// Package clock abstracts time so the whole system runs on calibrated
// service-time models without any logic changes: on the real clock
// (Realtime), model time is wall time and a run reproduces paper-scale
// latencies; inside Run's synctest bubble, model time is virtual and a model
// sleep costs no wall time. Every latency-simulating component takes a Clock.
package clock

import (
	"bytes"
	"fmt"
	"runtime"
	"time"
)

// Clock supplies time to URSA components. Implementations must be safe for
// concurrent use.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep blocks the calling goroutine for d of model time.
	Sleep(d time.Duration)
	// After returns a channel that fires after d of model time.
	After(d time.Duration) <-chan time.Time
}

// Mutex is the lock to hold across a model sleep: a one-slot channel, whose
// waiters a synctest bubble counts as durably blocked — a sync.Mutex's it
// does not, and its clock freezes. Make it with NewMutex, with its owner: a
// channel belongs to the bubble it is made in.
type Mutex chan struct{}

// NewMutex returns an unlocked Mutex.
func NewMutex() Mutex { return make(Mutex, 1) }

// Lock takes m, waiting for its holder to Unlock it.
func (m Mutex) Lock() { m <- struct{}{} }

// TryLock takes m if no one holds it and reports whether it did; it never
// waits.
func (m Mutex) TryLock() bool {
	select {
	case m <- struct{}{}:
		return true
	default:
		return false
	}
}

// Unlock releases m; like sync.Mutex's, it panics when m is not held.
func (m Mutex) Unlock() {
	select {
	case <-m:
	default:
		panic("clock: unlock of unlocked Mutex")
	}
}

// Join runs f on the calling goroutine, so a test may t.Fatal in it, then
// waits up to 10 s of real time for every goroutine f started to exit, else
// returns how many are left and every stack. What f started is every
// goroutine not alive when Join began, known by ID: a count would let an
// older goroutine's exit stand in for one of f's still running. Not for use
// in a bubble, where its sleeps are virtual.
func Join(f func()) error {
	before := goroutineIDs(allStacks())
	f()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		stacks := allStacks()
		left := 0
		for id := range goroutineIDs(stacks) {
			if !before[id] {
				left++
			}
		}
		if left == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines the run started are left 10s after it returned\n%s", left, stacks)
		}
	}
}

// TB is what Test needs of a *testing.T; taking it instead keeps package
// testing out of the daemons' builds.
type TB interface {
	Helper()
	Failed() bool
	FailNow()
	Fatalf(format string, args ...any)
}

// Test runs a test body through Run — in a synctest bubble when the build
// sets GOEXPERIMENT=synctest, else on the real clock through Join — and stops
// t when f failed or left a goroutine running. f closes what it opened with
// a defer, never t.Cleanup: a cleanup runs after the bubble has gone.
func Test(t TB, f func()) {
	t.Helper()
	if err := Run(f); err != nil {
		t.Fatalf("%v", err)
	}
	if t.Failed() {
		t.FailNow()
	}
}

// allStacks returns the stacks of every goroutine (runtime.Stack's format).
func allStacks() []byte {
	for buf := make([]byte, 64<<10); ; buf = make([]byte, 2*len(buf)) {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return buf[:n]
		}
	}
}

// goroutineIDs returns the IDs of the goroutines in stacks, whose records
// each begin "goroutine <id> [".
func goroutineIDs(stacks []byte) map[string]bool {
	ids := make(map[string]bool)
	for _, rec := range bytes.Split(stacks, []byte("\n\n")) {
		if rest, ok := bytes.CutPrefix(rec, []byte("goroutine ")); ok {
			if id, _, ok := bytes.Cut(rest, []byte(" ")); ok {
				ids[string(id)] = true
			}
		}
	}
	return ids
}

// realClock is the identity clock: model time is wall time.
type realClock struct{}

// Realtime is the shared real clock.
var Realtime Clock = realClock{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) Sleep(d time.Duration)                  { time.Sleep(d) }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
