package transport

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/util"
)

// echoHandler responds with the request payload in status OK. Aliasing the
// request payload into the response hands a second consumer (Send) the
// same buffer, so the handler takes its own reference first — the
// Retain-on-alias rule of the ownership contract.
func echoHandler(m *proto.Message) *proto.Message {
	bufpool.Retain(m.Payload)
	r := m.Reply(proto.StatusOK)
	r.Payload = m.Payload
	return r
}

// tcpPeers serves h over TCP and returns a pool to call it with and its
// address; the pool is closed before the server when the test ends.
func tcpPeers(t *testing.T, h Handler) (*Peers, string) {
	t.Helper()
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, h)
	p := NewPeers(TCPDialer{}, clock.Realtime)
	t.Cleanup(func() {
		p.CloseAll()
		srv.Close()
	})
	return p, srv.Addr()
}

// flight begins an n-branch flight on p, unbounded but for the test's own
// timeout.
func flight(t *testing.T, p *Peers, n int) *Flight {
	op := opctx.New(p.clk, 0)
	t.Cleanup(op.Release)
	return p.Begin(op, n, 0)
}

func TestTCPCallRoundTrip(t *testing.T) {
	p, addr := tcpPeers(t, echoHandler)
	resp, err := callOnce(p, addr, &proto.Message{Op: proto.OpRead, Payload: []byte("ping")}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != proto.StatusOK || string(resp.Payload) != "ping" {
		t.Errorf("resp = %+v", resp)
	}
}

func TestTCPPipelining(t *testing.T) {
	// Slow handler: 10ms each. 32 pipelined calls should take ~10ms, not
	// 320ms, because they execute concurrently.
	p, addr := tcpPeers(t, func(m *proto.Message) *proto.Message {
		time.Sleep(10 * time.Millisecond)
		return m.Reply(proto.StatusOK)
	})
	if _, err := p.Get(addr); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	fl := flight(t, p, 32)
	defer fl.Finish()
	for i := 0; i < 32; i++ {
		fl.Go(i, addr, &proto.Message{Op: proto.OpNop})
	}
	for i := 0; i < 32; i++ {
		if resp, err := fl.Wait(i); err != nil || resp.Status != proto.StatusOK {
			t.Fatalf("pipelined call %d failed: %v", i, err)
		}
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Errorf("32 pipelined 10ms calls took %v", elapsed)
	}
}

func TestOutOfOrderCompletion(t *testing.T) {
	// First request is slow, second fast: the second must complete first.
	p, addr := tcpPeers(t, func(m *proto.Message) *proto.Message {
		if m.Op == proto.OpRead {
			time.Sleep(50 * time.Millisecond)
		}
		return m.Reply(proto.StatusOK)
	})

	const slow, fast = 0, 1
	fl := flight(t, p, 2)
	defer fl.Finish()
	fl.Go(slow, addr, &proto.Message{Op: proto.OpRead})
	fl.Go(fast, addr, &proto.Message{Op: proto.OpNop})
	if r, ok := fl.Next(); !ok || r.Err || r.Target != fast {
		t.Fatalf("first completion = %+v, %v; want the fast request", r, ok)
	}
	if r, ok := fl.Next(); !ok || r.Err || r.Target != slow {
		t.Fatalf("second completion = %+v, %v; want the slow request", r, ok)
	}
}

// simPair serves echoHandler at "server" on a SimNet and returns a pool
// dialing from "client" whose connection to it is already up, and its close.
func simPair(t *testing.T, latency time.Duration, cfg NodeConfig) (*SimNet, *Peers, *Server, func()) {
	t.Helper()
	clk := clock.Realtime
	net := NewSimNet(clk, latency)
	l, err := net.Listen("server", cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, echoHandler)
	p := NewPeers(net.Dialer("client", cfg), clk)
	closeAll := func() {
		p.CloseAll()
		srv.Close()
	}
	if _, err := p.Get("server"); err != nil {
		closeAll()
		t.Fatal(err)
	}
	return net, p, srv, closeAll
}

func TestSimNetRoundTrip(t *testing.T) {
	clock.Test(t, func() {
		_, p, _, cleanup := simPair(t, 0, NodeConfig{})
		defer cleanup()
		resp, err := callOnce(p, "server", &proto.Message{Op: proto.OpRead, Payload: []byte("x")}, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != proto.StatusOK {
			t.Errorf("resp = %+v", resp)
		}
	})
}

func TestSimNetLatency(t *testing.T) {
	clock.Test(t, func() {
		_, p, _, cleanup := simPair(t, 5*time.Millisecond, NodeConfig{})
		defer cleanup()
		start := time.Now()
		if _, err := callOnce(p, "server", &proto.Message{Op: proto.OpNop}, time.Second); err != nil {
			t.Fatal(err)
		}
		rtt := time.Since(start)
		if rtt < 10*time.Millisecond {
			t.Errorf("RTT %v < 2×5ms propagation", rtt)
		}
	})
}

func TestSimNetBandwidth(t *testing.T) {
	clock.Test(t, func() {
		// 1 MB payload over a 10 MB/s link must take ≥ ~100ms.
		_, p, _, cleanup := simPair(t, 0, NodeConfig{InRate: 10e6, OutRate: 10e6})
		defer cleanup()
		payload := make([]byte, util.MiB)
		start := time.Now()
		if _, err := callOnce(p, "server", &proto.Message{Op: proto.OpWrite, Payload: payload}, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		// Request 1MB out + response 1MB back, each shaped twice (out+in)
		// but pipelined; lower bound is ~100ms for one direction.
		if elapsed < 90*time.Millisecond {
			t.Errorf("1MB over 10MB/s took only %v", elapsed)
		}
	})
}

func TestSimNetPartitionDropsAndTimesOut(t *testing.T) {
	clock.Test(t, func() {
		net, p, _, cleanup := simPair(t, 0, NodeConfig{})
		defer cleanup()
		net.Partition("client", "server")
		_, err := callOnce(p, "server", &proto.Message{Op: proto.OpNop}, 30*time.Millisecond)
		if !errors.Is(err, util.ErrTimeout) {
			t.Fatalf("partitioned call: %v", err)
		}
		net.Heal("client", "server")
		if _, err := callOnce(p, "server", &proto.Message{Op: proto.OpNop}, time.Second); err != nil {
			t.Fatalf("healed call: %v", err)
		}
	})
}

func TestSimNetCrash(t *testing.T) {
	clock.Test(t, func() {
		net, p, _, cleanup := simPair(t, 0, NodeConfig{})
		defer cleanup()
		net.Crash("server")
		if _, err := callOnce(p, "server", &proto.Message{Op: proto.OpNop}, 50*time.Millisecond); err == nil {
			t.Fatal("call to crashed node succeeded")
		}
		// Dials to a crashed node fail fast.
		if _, err := net.Dialer("client2", NodeConfig{}).Dial("server"); err == nil {
			t.Fatal("dial to crashed node succeeded")
		}
		net.Restart("server")
		if net.Down("server") {
			t.Error("server still down after restart")
		}
	})
}

func TestSimNetDialUnknown(t *testing.T) {
	clock.Test(t, func() {
		net := NewSimNet(clock.Realtime, 0)
		if _, err := net.Dialer("a", NodeConfig{}).Dial("nowhere"); err == nil {
			t.Fatal("dial to unknown address succeeded")
		}
	})
}

func TestSimNetDuplicateListen(t *testing.T) {
	clock.Test(t, func() {
		net := NewSimNet(clock.Realtime, 0)
		if _, err := net.Listen("a", NodeConfig{}); err != nil {
			t.Fatal(err)
		}
		if _, err := net.Listen("a", NodeConfig{}); !errors.Is(err, util.ErrExists) {
			t.Fatalf("duplicate listen: %v", err)
		}
	})
}

func TestClientTimeoutLeavesConnectionUsable(t *testing.T) {
	p, addr := tcpPeers(t, func(m *proto.Message) *proto.Message {
		if m.Op == proto.OpRead {
			time.Sleep(100 * time.Millisecond)
		}
		return m.Reply(proto.StatusOK)
	})

	if _, err := callOnce(p, addr, &proto.Message{Op: proto.OpRead}, 10*time.Millisecond); !errors.Is(err, util.ErrTimeout) {
		t.Fatalf("want timeout, got %v", err)
	}
	// The late response must be discarded and later calls still work.
	if _, err := callOnce(p, addr, &proto.Message{Op: proto.OpNop}, time.Second); err != nil {
		t.Fatalf("post-timeout call: %v", err)
	}
}

func TestClientConnFailureFailsPending(t *testing.T) {
	clock.Test(t, func() {
		_, p, srv, cleanup := simPair(t, 0, NodeConfig{})
		defer cleanup()
		op := opctx.New(p.clk, 0)
		defer op.Release()
		fl := p.Begin(op, 1, 0)
		defer fl.Finish()
		fl.Go(0, "server", &proto.Message{Op: proto.OpRead})
		srv.Close()
		settled := make(chan struct{})
		go func() {
			// A response may have raced the close; either outcome settles it.
			fl.Wait(0)
			close(settled)
		}()
		select {
		case <-settled:
		case <-time.After(2 * time.Second):
			t.Fatal("pending call not failed after server close")
		}
	})
}

func TestTokenBucketRate(t *testing.T) {
	clock.Test(t, func() {
		clk := clock.Realtime
		b := NewTokenBucket(clk, 1e6) // 1 MB/s
		start := time.Now()
		for i := 0; i < 10; i++ {
			b.Take(10_000) // 100 KB total => 100ms
		}
		elapsed := time.Since(start)
		if elapsed < 80*time.Millisecond {
			t.Errorf("100KB at 1MB/s took only %v", elapsed)
		}
		if elapsed > 400*time.Millisecond {
			t.Errorf("100KB at 1MB/s took %v", elapsed)
		}
	})
}

func TestTokenBucketUnlimited(t *testing.T) {
	clock.Test(t, func() {
		b := NewTokenBucket(clock.Realtime, 0)
		start := time.Now()
		b.Take(1 << 30)
		if time.Since(start) > 10*time.Millisecond {
			t.Error("unlimited bucket blocked")
		}
		var nilBucket *TokenBucket
		nilBucket.Take(100) // must not panic
		if nilBucket.Rate() != 0 {
			t.Error("nil bucket rate")
		}
	})
}

func TestTokenBucketConcurrentSharing(t *testing.T) {
	clock.Test(t, func() {
		// Two goroutines sharing one bucket halve each other's rate.
		b := NewTokenBucket(clock.Realtime, 2e6)
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					b.Take(10_000)
				}
			}()
		}
		wg.Wait()
		// 200KB total at 2MB/s = 100ms.
		if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
			t.Errorf("shared bucket too fast: %v", elapsed)
		}
	})
}

// pipeDialer hands out the client end of a net.Pipe whose far end nobody
// reads: a peer wedged with full socket buffers.
type pipeDialer struct{ far []net.Conn }

func (d *pipeDialer) Dial(string) (MsgConn, error) {
	near, far := net.Pipe()
	d.far = append(d.far, far)
	return NewTCPConn(near), nil
}

// TestTCPSendDeadlineFromBudget: a send to a peer that never reads returns by
// the message's budget, the flight counts the slot failed and evicts the
// connection. Without the deadline the send — issued on the awaiting
// goroutine — blocks for good.
func TestTCPSendDeadlineFromBudget(t *testing.T) {
	const budget = 100 * time.Millisecond
	d := &pipeDialer{}
	p := NewPeers(d, clock.Realtime)
	defer func() {
		p.CloseAll()
		for _, c := range d.far {
			c.Close()
		}
	}()
	op := opctx.New(clock.Realtime, budget)
	defer op.Release()

	type outcome struct {
		err  error
		took time.Duration
	}
	done := make(chan outcome, 1)
	go func() {
		t0 := time.Now()
		fl := p.Begin(op, 1, 0)
		_, err := fl.Wait(fl.Go(0, "wedged", &proto.Message{Op: proto.OpWrite, Payload: make([]byte, 4096)}))
		fl.Finish()
		done <- outcome{err, time.Since(t0)}
	}()
	select {
	case o := <-done:
		if o.err == nil {
			t.Fatal("a call to a peer that never reads succeeded")
		}
		if o.took > 10*budget {
			t.Fatalf("send returned after %v, budget %v", o.took, budget)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Send to a wedged peer never returned")
	}
	if p.cached("wedged") {
		t.Fatal("the connection with half a frame on it is still pooled")
	}
}
