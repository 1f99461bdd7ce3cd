package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/opctx"
	"ursa/internal/proto"
)

// stubCaller answers OK after an optional per-target delay, settling the
// request exactly as the real transport does (payload reference consumed,
// frame recycled). Target 0 can be made to fail.
type stubCaller struct {
	delay  map[string]time.Duration
	fail   map[string]bool
	calls  atomic.Int64
	closed sync.WaitGroup
}

func (s *stubCaller) Do(op *opctx.Op, addr string, m *proto.Message, cap time.Duration) (*proto.Message, error) {
	s.calls.Add(1)
	ver := m.Version
	bufpool.Put(m.Payload)
	proto.Recycle(m)
	if d := s.delay[addr]; d > 0 {
		time.Sleep(d)
	}
	if s.fail[addr] {
		return nil, errors.New("stub: down")
	}
	resp := proto.GetMessage()
	resp.Status = proto.StatusOK
	resp.Version = ver
	return resp, nil
}

func fanOp() *opctx.Op { return opctx.New(clock.Realtime, 0) }

func sendBranch(fl *Flight, target int, addr string, op *opctx.Op) {
	m := proto.GetMessage()
	m.Op = proto.OpReplicate
	m.Version = 42
	fl.Go(target, addr, op, time.Second, m)
}

func TestBroadcasterAllAck(t *testing.T) {
	s := &stubCaller{}
	b := NewBroadcaster(s)
	defer b.Close()
	op := fanOp()
	for round := 0; round < 50; round++ {
		fl := b.Begin(3)
		for i, addr := range []string{"a", "b", "c"} {
			sendBranch(fl, i, addr, op)
		}
		seen := map[int]bool{}
		for i := 0; i < 3; i++ {
			r := fl.Next()
			if r.Err || r.Status != proto.StatusOK || r.Version != 42 {
				t.Fatalf("round %d: bad result %+v", round, r)
			}
			if seen[r.Target] {
				t.Fatalf("round %d: duplicate target %d", round, r.Target)
			}
			seen[r.Target] = true
		}
		fl.Finish()
	}
	if got := s.calls.Load(); got != 150 {
		t.Fatalf("stub saw %d calls, want 150", got)
	}
}

// TestBroadcasterEarlyFinish is the commit-rule shape: the caller decides
// on a majority and Finishes while a slow straggler is still in flight. The
// straggler must settle into the still-live flight, and the flight must be
// reusable afterwards without cross-talk from stale results.
func TestBroadcasterEarlyFinish(t *testing.T) {
	s := &stubCaller{
		delay: map[string]time.Duration{"slow": 30 * time.Millisecond},
		fail:  map[string]bool{"dead": true},
	}
	b := NewBroadcaster(s)
	defer b.Close()
	op := fanOp()
	for round := 0; round < 20; round++ {
		fl := b.Begin(3)
		sendBranch(fl, 0, "ok", op)
		sendBranch(fl, 1, "slow", op)
		sendBranch(fl, 2, "dead", op)
		acks := 0
		for i := 0; i < 2; i++ {
			if r := fl.Next(); !r.Err && r.Status == proto.StatusOK {
				acks++
			}
		}
		fl.Finish() // straggler (or the failure) still outstanding
		if acks == 0 {
			t.Fatalf("round %d: no ack from fast replicas", round)
		}
	}
	// Let every straggler drain so the deferred Close finds quiet workers.
	time.Sleep(100 * time.Millisecond)
	if got := s.calls.Load(); got != 60 {
		t.Fatalf("stub saw %d calls, want 60", got)
	}
}

// TestBroadcasterDispatchAfterClose: a teardown race must still settle the
// flight (fresh goroutines), never deadlock or panic.
func TestBroadcasterDispatchAfterClose(t *testing.T) {
	s := &stubCaller{}
	b := NewBroadcaster(s)
	b.Close()
	op := fanOp()
	fl := b.Begin(2)
	sendBranch(fl, 0, "a", op)
	sendBranch(fl, 1, "b", op)
	for i := 0; i < 2; i++ {
		if r := fl.Next(); r.Err {
			t.Fatalf("post-close branch failed: %+v", r)
		}
	}
	fl.Finish()
}
