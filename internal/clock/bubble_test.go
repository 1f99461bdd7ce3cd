//go:build goexperiment.synctest

package clock

import (
	"testing"
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
