package transport

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ursa/internal/clock"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/util"
)

// TestCallUnblocksOnConnDeath pins the shutdown contract: a call blocked
// in flight when the connection dies must return promptly with an error
// matching util.ErrClosed — not hang until some timeout.
func TestCallUnblocksOnConnDeath(t *testing.T) {
	release := make(chan struct{})
	p, addr := tcpPeers(t, func(m *proto.Message) *proto.Message {
		<-release
		return m.Reply(proto.StatusOK)
	})
	// The parked handler is released before the cleanup closes the server,
	// which waits for in-flight handlers to drain.
	defer close(release)
	c, err := p.Get(addr)
	if err != nil {
		t.Fatal(err)
	}

	errCh := make(chan error, 1)
	go func() {
		_, err := callOnce(p, addr, &proto.Message{Op: proto.OpRead}, 0) // no timeout: only conn death can end it
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the call get in flight
	c.conn.Close()

	select {
	case err := <-errCh:
		if !errors.Is(err, util.ErrClosed) {
			t.Fatalf("call after conn death: %v (want util.ErrClosed)", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("call hung after connection death")
	}
	if n := c.pendingCalls(); n != 0 {
		t.Errorf("pending entries leaked after conn death: %d", n)
	}
}

// TestLateResponseDropped pins the timeout contract: when a call times
// out, its pending entry is removed immediately, and the server's late
// response is dropped by the dispatcher without leaking or corrupting
// later calls.
func TestLateResponseDropped(t *testing.T) {
	var mu sync.Mutex
	delay := 200 * time.Millisecond
	p, addr := tcpPeers(t, func(m *proto.Message) *proto.Message {
		mu.Lock()
		d := delay
		mu.Unlock()
		time.Sleep(d)
		return m.Reply(proto.StatusOK)
	})
	c, err := p.Get(addr)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := callOnce(p, addr, &proto.Message{Op: proto.OpRead}, 20*time.Millisecond); !errors.Is(err, util.ErrTimeout) {
		t.Fatalf("short-timeout call: %v (want util.ErrTimeout)", err)
	}
	if n := c.pendingCalls(); n != 0 {
		t.Fatalf("pending entries leaked after timeout: %d", n)
	}

	// Let the late response arrive, then verify the connection still works
	// and nothing leaked.
	mu.Lock()
	delay = 0
	mu.Unlock()
	time.Sleep(300 * time.Millisecond)
	resp, err := callOnce(p, addr, &proto.Message{Op: proto.OpNop}, time.Second)
	if err != nil || resp.Status != proto.StatusOK {
		t.Fatalf("call after late response: %v %+v", err, resp)
	}
	if now, _ := p.Get(addr); now != c {
		t.Fatal("the timeout replaced the connection")
	}
	if n := c.pendingCalls(); n != 0 {
		t.Errorf("pending entries leaked after late response: %d", n)
	}
}

// TestDoStampsDeadline verifies the decrement rule at the wire: Do stamps
// the op's ID and its *remaining* budget into the outbound message.
func TestDoStampsDeadline(t *testing.T) {
	type stamp struct {
		opID   uint64
		budget time.Duration
	}
	got := make(chan stamp, 1)
	p, addr := tcpPeers(t, func(m *proto.Message) *proto.Message {
		got <- stamp{m.OpID, m.Budget}
		return m.Reply(proto.StatusOK)
	})
	if _, err := p.Get(addr); err != nil {
		t.Fatal(err)
	}

	budget := 500 * time.Millisecond
	op := opctx.New(clock.Realtime, budget)
	time.Sleep(10 * time.Millisecond) // spend some budget before the call
	if _, err := p.Do(op, addr, &proto.Message{Op: proto.OpNop}, 0); err != nil {
		t.Fatal(err)
	}
	s := <-got
	if s.opID != op.ID() {
		t.Errorf("wire op id = %d, want %d", s.opID, op.ID())
	}
	if s.budget <= 0 || s.budget >= budget {
		t.Errorf("wire budget = %v, want in (0, %v): remaining, not original", s.budget, budget)
	}

	// An expired op must not even hit the wire.
	spent := opctx.New(clock.Realtime, time.Nanosecond)
	time.Sleep(time.Millisecond)
	if _, err := p.Do(spent, addr, &proto.Message{Op: proto.OpNop}, 0); !errors.Is(err, util.ErrTimeout) {
		t.Errorf("expired-op Do: %v (want util.ErrTimeout)", err)
	}
}
