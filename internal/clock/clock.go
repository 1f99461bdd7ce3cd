// Package clock abstracts time so the whole system runs on calibrated
// service-time models without any logic changes: on the real clock
// (Realtime), model time is wall time and a run reproduces paper-scale
// latencies; inside Run's synctest bubble, model time is virtual and a model
// sleep costs no wall time. Every latency-simulating component takes a Clock.
package clock

import (
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

// Unlock releases m; like sync.Mutex's, it panics when m is not held.
func (m Mutex) Unlock() {
	select {
	case <-m:
	default:
		panic("clock: unlock of unlocked Mutex")
	}
}

// Join runs f on the calling goroutine, so a test may t.Fatal in it, then
// waits up to 10 s of real time for every goroutine f started to exit
// (runtime.NumGoroutine back at its entry value), else returns both counts
// and every stack. Not for use in a bubble, where its sleeps are virtual.
func Join(f func()) error {
	start := runtime.NumGoroutine()
	f()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > start; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			return fmt.Errorf("%d goroutines 10s after the run returned, started with %d\n%s",
				runtime.NumGoroutine(), start, buf[:runtime.Stack(buf, true)])
		}
	}
	return nil
}

// realClock is the identity clock: model time is wall time.
type realClock struct{}

// Realtime is the shared real clock.
var Realtime Clock = realClock{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) Sleep(d time.Duration)                  { time.Sleep(d) }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
