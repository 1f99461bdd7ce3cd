//go:build linux

package clock

import (
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSleepIsPrecise: Realtime.Sleep never returns before d, and a 100 µs
// sleep is not rounded up to the runtime timer's 1 ms epoll quantum, which
// made it last 1.10 ms at the median.
func TestSleepIsPrecise(t *testing.T) {
	for _, d := range []time.Duration{100 * time.Microsecond, 1074500 * time.Nanosecond, 2141 * time.Microsecond} {
		took := make([]time.Duration, 200)
		for i := range took {
			start := time.Now()
			Realtime.Sleep(d)
			took[i] = time.Since(start)
		}
		slices.Sort(took)
		if took[0] < d {
			t.Errorf("Sleep(%v) returned after %v", d, took[0])
		}
		t.Logf("Sleep(%v): p50 %v, p99 %v", d, took[len(took)/2], took[len(took)*99/100])
		if p50 := took[len(took)/2]; d == 100*time.Microsecond && p50 >= 500*time.Microsecond {
			t.Errorf("Sleep(%v) p50 = %v, want < 500µs", d, p50)
		}
	}
}

// TestWarmSleepAllocatesNothing: a sleep that takes an idle timerfd arms and
// waits on it without allocating.
func TestWarmSleepAllocatesNothing(t *testing.T) {
	Realtime.Sleep(time.Microsecond)
	if n := testing.AllocsPerRun(100, func() { Realtime.Sleep(10 * time.Microsecond) }); n != 0 {
		t.Fatalf("a warm Sleep allocates %v times, want 0", n)
	}
}

// TestIdleTimersAreBounded: 256 concurrent sleepers open a timerfd each, and
// once they are done at most the free list's capacity stay open.
func TestIdleTimersAreBounded(t *testing.T) {
	var wg sync.WaitGroup
	for range 256 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Realtime.Sleep(20 * time.Millisecond)
		}()
	}
	wg.Wait()
	if n := openTimerFDs(t); n == 0 || n > cap(idleTimers) {
		t.Fatalf("%d timerfds open after 256 sleeps ended, want 1 to %d", n, cap(idleTimers))
	}
}

// openTimerFDs counts the process's open timerfds.
func openTimerFDs(t *testing.T) int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip(err)
	}
	n := 0
	for _, e := range ents {
		if target, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && strings.Contains(target, "timerfd") {
			n++
		}
	}
	return n
}
