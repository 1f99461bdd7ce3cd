package transport

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/proto"
)

// TestSimPipeFIFOUnderConcurrentSenders: the growable ring keeps what the
// channel gave — every message of a sender arrives, in that sender's order,
// while the ring doubles under the burst.
func TestSimPipeFIFOUnderConcurrentSenders(t *testing.T) {
	clock.Test(t, func() {
		const senders, each = 8, 400 // 3200 < simPipeDepth: nothing may be dropped
		p := newSimPipe()
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					if err := p.send(timedMsg{m: &proto.Message{View: uint64(s), Version: uint64(i)}}); err != nil {
						t.Errorf("sender %d: %v", s, err)
						return
					}
				}
			}(s)
		}
		var next [senders]uint64
		for got := 0; got < senders*each; got++ {
			tm, ok := p.recv()
			if !ok {
				t.Fatalf("pipe closed after %d messages", got)
			}
			if s := tm.m.View; tm.m.Version != next[s] {
				t.Fatalf("sender %d: got message %d, want %d", s, tm.m.Version, next[s])
			} else {
				next[s]++
			}
		}
		wg.Wait()
		if p.n != 0 {
			t.Fatalf("%d messages left in a drained pipe", p.n)
		}
	})
}

// TestSimPipeBoundDropAndClose: the pipe holds simPipeDepth messages and no
// more — message 4097 is dropped silently with its payload lease released —
// an idle pipe holds no ring, and close releases every queued lease.
func TestSimPipeBoundDropAndClose(t *testing.T) {
	clock.Test(t, func() {
		base := bufpool.InUse()
		p := newSimPipe()
		if p.ring != nil {
			t.Fatalf("an idle pipe holds a %d-slot ring", len(p.ring))
		}
		leased := func() *proto.Message { return &proto.Message{Payload: bufpool.Get(512)} }
		for i := 0; i < simPipeDepth; i++ {
			if err := p.send(timedMsg{m: leased()}); err != nil {
				t.Fatal(err)
			}
		}
		if got := bufpool.InUse() - base; got != simPipeDepth {
			t.Fatalf("%d leases held by a full pipe, want %d", got, simPipeDepth)
		}
		if err := p.send(timedMsg{m: leased()}); err != nil {
			t.Fatalf("send past the bound: %v, want a silent drop", err)
		}
		if p.n != simPipeDepth || len(p.ring) != simPipeDepth {
			t.Fatalf("pipe holds %d messages in %d slots, want %d in %d", p.n, len(p.ring), simPipeDepth, simPipeDepth)
		}
		if got := bufpool.InUse() - base; got != simPipeDepth {
			t.Fatalf("%d leases after the drop, want %d: the dropped payload leaked", got, simPipeDepth)
		}
		// One delivered (its lease is now the receiver's), the rest die with the pipe.
		tm, ok := p.recv()
		if !ok {
			t.Fatal("recv on a full pipe reported closed")
		}
		bufpool.Put(tm.m.Payload)
		p.close()
		if got := bufpool.InUse() - base; got != 0 {
			t.Fatalf("%d leases outlive close", got)
		}
		if _, ok := p.recv(); ok {
			t.Fatal("recv on a closed pipe delivered a message")
		}
		if err := p.send(timedMsg{m: leased()}); !errors.Is(err, ErrConnClosed) {
			t.Fatalf("send on a closed pipe: %v", err)
		}
		if got := bufpool.InUse() - base; got != 0 {
			t.Fatalf("%d leases after a refused send", got)
		}
	})
}

// TestSimPipeCloseWakesReceiver: a receiver parked on an empty pipe returns
// when the pipe dies.
func TestSimPipeCloseWakesReceiver(t *testing.T) {
	clock.Test(t, func() {
		p := newSimPipe()
		woke := make(chan bool)
		go func() {
			_, ok := p.recv()
			woke <- ok
		}()
		p.close()
		select {
		case ok := <-woke:
			if ok {
				t.Fatal("recv delivered from an empty closed pipe")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("close did not wake the parked receiver")
		}
	})
}

// TestSimNetLatencyFromSendStamp: propagation delay runs from the send
// stamp, not from the Recv call — a message that has already waited its
// latency in the queue is delivered at once.
func TestSimNetLatencyFromSendStamp(t *testing.T) {
	clock.Test(t, func() {
		const latency = 40 * time.Millisecond
		n := NewSimNet(clock.Realtime, latency)
		l, err := n.Listen("b", NodeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		a, err := n.Dialer("a", NodeConfig{}).Dial("b")
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		b, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}

		t0 := time.Now()
		if err := a.Send(&proto.Message{Op: proto.OpNop}); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d < latency {
			t.Fatalf("delivered after %v, before the %v latency", d, latency)
		}

		if err := a.Send(&proto.Message{Op: proto.OpNop}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(latency + 5*time.Millisecond) // the message ages in the queue
		t0 = time.Now()
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d > latency/2 {
			t.Fatalf("an aged message waited another %v", d)
		}
	})
}
