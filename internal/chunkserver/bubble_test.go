//go:build goexperiment.synctest

package chunkserver

import (
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"ursa/internal/clock"
	"ursa/internal/opctx"
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

// TestBubbleVersionSlotWait: a write for slot 1 waits for slot 0 to be
// claimed and wakes at exactly the bump; then two waiters whose deadlines
// nobody beats share the chunk's one timer — the later deadline armed first —
// and each gives up at exactly its own deadline.
func TestBubbleVersionSlotWait(t *testing.T) {
	inAndOutOfBubble(t, func(t *testing.T, bubble bool) {
		cs, err := (&Server{}).newChunkState(CreateChunkReq{})
		if err != nil {
			t.Error(err)
			return
		}
		op := opctx.New(clock.Realtime, 0)
		defer op.Release()
		exactly := func(what string, took, want time.Duration) {
			if took < want || bubble && took != want {
				t.Errorf("%s after %v, want exactly %v", what, took, want)
			}
		}

		const bumpAt = 3 * time.Millisecond
		t0 := time.Now()
		go func() {
			time.Sleep(bumpAt)
			cs.mu.Lock()
			cs.reserved++ // slot 0 claimed
			cs.bumpLocked()
			cs.mu.Unlock()
		}()
		cs.mu.Lock()
		for cs.reserved < 1 {
			if !cs.waitChangeLocked(op, t0.Add(time.Second)) {
				t.Error("the slot wait timed out")
				return
			}
		}
		cs.mu.Unlock()
		exactly("woken by the bump", time.Since(t0), bumpAt)

		var wg sync.WaitGroup
		t0 = time.Now()
		for _, d := range []time.Duration{8 * time.Millisecond, 5 * time.Millisecond} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cs.mu.Lock()
				fired := cs.waitChangeLocked(op, t0.Add(d))
				cs.mu.Unlock()
				if fired {
					t.Errorf("a %v wait reports a change nobody made", d)
				}
				exactly("timed out", time.Since(t0), d)
			}()
			time.Sleep(time.Microsecond) // the later deadline parks first
		}
		wg.Wait()
	})
}
