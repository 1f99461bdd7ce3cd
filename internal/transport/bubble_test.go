//go:build goexperiment.synctest

package transport

import (
	"errors"
	"testing"
	"testing/synctest"
	"time"

	"ursa/internal/clock"
	"ursa/internal/opctx"
	"ursa/internal/proto"
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

// TestBubbleFlightWindowExpires: a flight answered in one round trip, then
// the same owner's next flight — the first one recycled, timer and all, and
// its long window reset to a short one — whose only branch is never
// answered: Wait fails at exactly the short window. The answered flight's
// window is one no loaded host misses; the round trip is exact in a bubble.
func TestBubbleFlightWindowExpires(t *testing.T) {
	inAndOutOfBubble(t, func(t *testing.T, bubble bool) {
		const latency, answered, window = time.Millisecond, time.Minute, 5 * time.Millisecond
		net := NewSimNet(clock.Realtime, latency)
		l, err := net.Listen("server", NodeConfig{})
		if err != nil {
			t.Error(err)
			return
		}
		release := make(chan struct{})
		srv := Serve(l, func(m *proto.Message) *proto.Message {
			if m.Op == proto.OpRead {
				<-release
			}
			return m.Reply(proto.StatusOK)
		})
		peers := NewPeers(net.Dialer("caller", NodeConfig{}), clock.Realtime)
		defer func() {
			close(release)
			peers.CloseAll()
			srv.Close()
		}()
		op := opctx.New(clock.Realtime, 0)
		defer op.Release()

		t0 := time.Now()
		fl := peers.Begin(op, 1, answered)
		resp, err := fl.Wait(fl.Go(0, "server", &proto.Message{Op: proto.OpNop}))
		fl.Finish()
		if err != nil || resp.Status != proto.StatusOK {
			t.Errorf("answered flight: %v, %v", resp, err)
			return
		}
		proto.Recycle(resp)
		if took := time.Since(t0); bubble && took != 2*latency {
			t.Errorf("round trip took %v, want exactly %v", took, 2*latency)
		}

		t0 = time.Now()
		fl = peers.Begin(op, 1, window)
		_, err = fl.Wait(fl.Go(0, "server", &proto.Message{Op: proto.OpRead}))
		took := time.Since(t0)
		fl.Finish()
		if !errors.Is(err, util.ErrTimeout) {
			t.Errorf("unanswered flight: %v, want a timeout", err)
			return
		}
		if took < window || bubble && took != window {
			t.Errorf("window expired after %v, want exactly %v", took, window)
		}
	})
}
