//go:build goexperiment.synctest

package simdisk

import (
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"ursa/internal/clock"
	"ursa/internal/util"
)

// inAndOutOfBubble runs f on the real clock, then again inside a synctest
// bubble, where time is virtual and exact. Whatever the first run leaves in
// package-level state must not stall the second: a channel or timer made
// outside a bubble is not a durable wait inside one. The second run is not on
// the test's goroutine, so f reports with t.Error and returns.
func inAndOutOfBubble(t *testing.T, f func(t *testing.T, bubble bool)) {
	t.Run("real", func(t *testing.T) { f(t, false) })
	t.Run("bubble", func(t *testing.T) { synctest.Run(func() { f(t, true) }) })
}

// TestBubbleHDDServesQueueInScanOrder: three requests queue behind one that
// holds the head; the elevator serves them ascending from the head, then
// sweeps back, and each lands at exactly the sum of the service times before
// it. The model makes a service time exact: no transfer or rotation, a 1 ms
// settle and one nanosecond of travel per 128 bytes.
func TestBubbleHDDServesQueueInScanOrder(t *testing.T) {
	inAndOutOfBubble(t, func(t *testing.T, bubble bool) {
		d := NewHDD(HDDModel{Capacity: util.GiB, SeekMax: 1 << 23, SeekSettle: time.Millisecond}, clock.Realtime)
		defer d.Close()
		seek := func(from, to int64) time.Duration {
			return time.Millisecond + time.Duration(max(to-from, from-to)/128)
		}
		var mu sync.Mutex
		var order []int64
		var done []time.Duration
		var wg sync.WaitGroup
		t0 := time.Now()
		submit := func(off int64) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := d.ReadAt(make([]byte, 4096), off); err != nil {
					t.Error(err)
				}
				mu.Lock()
				order, done = append(order, off), append(done, time.Since(t0))
				mu.Unlock()
			}()
		}
		waitDepth := func(n int) {
			for d.QueueDepth() < n {
				time.Sleep(time.Microsecond)
			}
		}
		const head, up, top, down = 512 * util.MiB, 768 * util.MiB, 896 * util.MiB, 256 * util.MiB
		submit(head)
		waitDepth(1)
		for i, off := range []int64{up, down, top} {
			submit(off)
			waitDepth(2 + i)
		}
		wg.Wait()

		want := []int64{head, up, top, down}
		var at time.Duration
		pos := int64(0)
		for i, off := range want {
			at += seek(pos, off)
			pos = off + 4096
			if order[i] != off {
				t.Errorf("served %v, want SCAN order %v", order, want)
				return
			}
			if bubble && done[i] != at {
				t.Errorf("request at %d MiB done after %v, want exactly %v", off/util.MiB, done[i], at)
			}
		}
		if got := d.Stats(); got.Reads != 4 || got.Seeks != 4 || got.BusyTime != at {
			t.Errorf("stats %+v, want 4 reads, 4 seeks and %v busy", got, at)
		}
	})
}
