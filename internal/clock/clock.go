// Package clock abstracts time so the whole system can run either at
// calibrated real-time speed (benchmarks reproduce paper-scale latencies)
// or at a scaled-down speed (unit tests finish in milliseconds) without any
// logic changes. Every latency-simulating component takes a Clock.
package clock

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// Clock supplies time to URSA components. Implementations must be safe for
// concurrent use.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep blocks the calling goroutine for d of *model* time. A scaled
	// clock sleeps a fraction of d in wall time.
	Sleep(d time.Duration)
	// After returns a channel that fires after d of model time.
	After(d time.Duration) <-chan time.Time
	// Scale returns the wall-time fraction of one model-time unit
	// (1.0 for the real clock).
	Scale() float64
}

// Wall returns the wall time d of model time on c lasts: what a time.Timer
// that an owner keeps for life — a flight's window, a chunk's wake-up — is
// Reset to for a wait of d.
func Wall(c Clock, d time.Duration) time.Duration {
	return time.Duration(float64(d) * c.Scale())
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

// Real is the identity clock: model time is wall time.
type realClock struct{}

// Realtime is the shared real clock.
var Realtime Clock = realClock{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) Sleep(d time.Duration)                  { time.Sleep(d) }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
func (realClock) Scale() float64                         { return 1.0 }

// Scaled compresses model time by factor: Sleep(d) sleeps d*factor wall
// time. factor must be in (0, 1]. Now() advances proportionally faster so
// that rates measured against this clock stay consistent with its sleeps:
// components compute IOPS as ops / modelElapsed.
type Scaled struct {
	factor float64
	start  time.Time
	// extra model-time nanoseconds credited by Advance (virtual waits).
	credit atomic.Int64
}

// NewScaled returns a clock whose model time runs 1/factor times faster
// than wall time. NewScaled(0.01) makes a simulated 8 ms HDD seek cost
// 80 µs of wall time.
func NewScaled(factor float64) *Scaled {
	if factor <= 0 || factor > 1 {
		panic("clock.NewScaled: factor must be in (0,1]")
	}
	return &Scaled{factor: factor, start: time.Now()}
}

// Now returns model time: elapsed wall time divided by the factor, plus any
// Advance credit, anchored at the clock's creation.
func (c *Scaled) Now() time.Time {
	wall := time.Since(c.start)
	model := time.Duration(float64(wall) / c.factor)
	return c.start.Add(model + time.Duration(c.credit.Load()))
}

// Sleep blocks for d of model time (d*factor wall time).
func (c *Scaled) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	time.Sleep(Wall(c, d))
}

// After fires after d of model time.
func (c *Scaled) After(d time.Duration) <-chan time.Time {
	return time.After(Wall(c, d))
}

// Scale reports the wall-time fraction.
func (c *Scaled) Scale() float64 { return c.factor }

// Advance credits d of model time without sleeping at all. Tests use it to
// skip over long idle periods (lease expiry, journal replay deadlines).
func (c *Scaled) Advance(d time.Duration) { c.credit.Add(int64(d)) }

// TestClock returns a heavily scaled clock suitable for unit tests: model
// milliseconds cost microseconds of wall time.
func TestClock() *Scaled { return NewScaled(0.001) }
