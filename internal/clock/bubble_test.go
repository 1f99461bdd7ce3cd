//go:build goexperiment.synctest

package clock

import (
	"testing"
	"testing/synctest"
	"time"
)

// TestBubbleRunIsVirtual: built with the experiment, Run runs f in a bubble.
// A goroutine f starts sleeps an hour, Run returns once it has exited, in
// well under a second of wall time, and f's clock reads exactly the hour.
func TestBubbleRunIsVirtual(t *testing.T) {
	var took time.Duration
	wall := time.Now()
	if err := Run(func() {
		start := time.Now()
		done := make(chan struct{})
		go func() {
			time.Sleep(time.Hour)
			close(done)
		}()
		<-done
		took = time.Since(start)
	}); err != nil {
		t.Fatal(err)
	}
	if w := time.Since(wall); w >= time.Second || took != time.Hour {
		t.Fatalf("Run took %v of wall time; f saw %v pass, want exactly 1h", w, took)
	}
}

// TestBubbleRealtimeSleepIsVirtual: Realtime.Sleep inside a bubble opened by
// synctest.Run itself, not through Run, stays on the bubble's clock: an hour
// passes exactly, in no wall time. The close is the join the race detector
// sees (Run's comment).
func TestBubbleRealtimeSleepIsVirtual(t *testing.T) {
	var took time.Duration
	wall := time.Now()
	done := make(chan struct{})
	synctest.Run(func() {
		defer close(done)
		start := time.Now()
		Realtime.Sleep(time.Hour)
		took = time.Since(start)
	})
	<-done
	if w := time.Since(wall); w >= time.Second || took != time.Hour {
		t.Fatalf("Sleep(1h) took %v of wall time and %v of the bubble's, want none and exactly 1h", w, took)
	}
}
