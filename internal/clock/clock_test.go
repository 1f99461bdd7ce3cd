package clock

import (
	"testing"
	"time"
)

func TestRealtimeBasics(t *testing.T) {
	before := Realtime.Now()
	Realtime.Sleep(time.Millisecond)
	if elapsed := Realtime.Now().Sub(before); elapsed < time.Millisecond {
		t.Errorf("Realtime.Sleep(1ms) elapsed only %v", elapsed)
	}
}

func TestSleepNonPositive(t *testing.T) {
	start := time.Now()
	Realtime.Sleep(0)
	Realtime.Sleep(-time.Second)
	if time.Since(start) > 10*time.Millisecond {
		t.Error("non-positive sleeps blocked")
	}
}
