package transport

import (
	"errors"
	"testing"
	"time"

	"ursa/internal/clock"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/util"
)

// peersFixture serves an echo handler (with a deliberately slow OpRead) on
// "server" and returns a pool dialing from "caller", and its close.
func peersFixture(t *testing.T) (*SimNet, *Peers, func()) {
	t.Helper()
	net := NewSimNet(clock.Realtime, 0)
	l, err := net.Listen("server", NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, func(m *proto.Message) *proto.Message {
		if m.Op == proto.OpRead {
			time.Sleep(100 * time.Millisecond)
		}
		return m.Reply(proto.StatusOK)
	})
	p := NewPeers(net.Dialer("caller", NodeConfig{}), clock.Realtime)
	return net, p, func() {
		p.CloseAll()
		srv.Close()
	}
}

// callOnce is a flight of one branch on an op of its own, bounded by timeout (0:
// by nothing but the connection).
func callOnce(p *Peers, addr string, m *proto.Message, timeout time.Duration) (*proto.Message, error) {
	op := opctx.New(p.clk, timeout)
	defer op.Release()
	return p.Do(op, addr, m, 0)
}

func TestPeersReusesConnection(t *testing.T) {
	clock.Test(t, func() {
		_, p, cleanup := peersFixture(t)
		defer cleanup()
		c1, err := p.Get("server")
		if err != nil {
			t.Fatal(err)
		}
		c2, err := p.Get("server")
		if err != nil {
			t.Fatal(err)
		}
		if c1 != c2 {
			t.Error("second Get dialed a fresh connection")
		}
		if resp, err := callOnce(p, "server", &proto.Message{Op: proto.OpNop}, time.Second); err != nil || resp.Status != proto.StatusOK {
			t.Fatalf("Call = %+v, %v", resp, err)
		}
	})
}

func TestPeersDialFailure(t *testing.T) {
	clock.Test(t, func() {
		_, p, cleanup := peersFixture(t)
		defer cleanup()
		if _, err := callOnce(p, "nowhere", &proto.Message{Op: proto.OpNop}, time.Second); err == nil {
			t.Fatal("call to unknown address succeeded")
		}
	})
}

// TestPeersTimeoutKeepsConnection: a budget timeout is not a transport
// fault — the pooled connection must survive and serve the next call.
func TestPeersTimeoutKeepsConnection(t *testing.T) {
	clock.Test(t, func() {
		_, p, cleanup := peersFixture(t)
		defer cleanup()
		before, err := p.Get("server")
		if err != nil {
			t.Fatal(err)
		}
		_, err = callOnce(p, "server", &proto.Message{Op: proto.OpRead}, 10*time.Millisecond)
		if !errors.Is(err, util.ErrTimeout) {
			t.Fatalf("slow call: %v", err)
		}
		if !p.cached("server") {
			t.Fatal("timeout evicted the connection")
		}
		after, err := p.Get("server")
		if err != nil {
			t.Fatal(err)
		}
		if before != after {
			t.Error("connection was replaced after a mere timeout")
		}
	})
}

// TestPeersFaultEvictsAndRedials: a crashed peer fails the call, evicts
// the cached client, and a later call transparently redials once the peer
// is back.
func TestPeersFaultEvictsAndRedials(t *testing.T) {
	clock.Test(t, func() {
		net, p, cleanup := peersFixture(t)
		defer cleanup()
		if _, err := callOnce(p, "server", &proto.Message{Op: proto.OpNop}, time.Second); err != nil {
			t.Fatal(err)
		}
		net.Crash("server")
		if _, err := callOnce(p, "server", &proto.Message{Op: proto.OpNop}, 50*time.Millisecond); err == nil {
			t.Fatal("call to crashed peer succeeded")
		}
		if p.cached("server") {
			t.Fatal("transport fault did not evict the connection")
		}
		net.Restart("server")
		if resp, err := callOnce(p, "server", &proto.Message{Op: proto.OpNop}, time.Second); err != nil || resp.Status != proto.StatusOK {
			t.Fatalf("post-restart call = %+v, %v", resp, err)
		}
	})
}

func TestPeersCloseAll(t *testing.T) {
	clock.Test(t, func() {
		_, p, cleanup := peersFixture(t)
		defer cleanup()
		if _, err := p.Get("server"); err != nil {
			t.Fatal(err)
		}
		p.CloseAll()
		if p.cached("server") {
			t.Fatal("CloseAll left a cached connection")
		}
		// The pool remains usable after CloseAll.
		if _, err := callOnce(p, "server", &proto.Message{Op: proto.OpNop}, time.Second); err != nil {
			t.Fatalf("call after CloseAll: %v", err)
		}
	})
}

// TestPeersReplacesDeadClient: a pooled client whose connection died with its
// peer is not handed out again — the first call after the peer is back
// redials and succeeds, instead of failing once to discover the corpse.
func TestPeersReplacesDeadClient(t *testing.T) {
	clock.Test(t, func() {
		net, p, cleanup := peersFixture(t)
		defer cleanup()
		old, err := p.Get("server")
		if err != nil {
			t.Fatal(err)
		}
		net.Crash("server")
		<-old.done // the dispatcher has seen the connection die
		net.Restart("server")
		if resp, err := callOnce(p, "server", &proto.Message{Op: proto.OpNop}, time.Second); err != nil || resp.Status != proto.StatusOK {
			t.Fatalf("first call after the restart = %+v, %v", resp, err)
		}
		if now, err := p.Get("server"); err != nil || now == old {
			t.Fatalf("pool still holds the dead client (%v)", err)
		}
	})
}
