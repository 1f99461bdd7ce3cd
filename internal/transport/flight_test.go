package transport

import (
	"sync/atomic"
	"testing"
	"time"

	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/opctx"
	"ursa/internal/proto"
)

// fanNet is a SimNet of replica servers for fan-out tests. A replica answers
// OK at the request's version after sleeping the request's Off in
// nanoseconds (negative: until the test ends), with a pooled payload of the
// request's Length — so a response nobody consumes shows up as a leaked lease.
type fanNet struct {
	net   *SimNet
	peers *Peers
	calls atomic.Int64
}

const forever = time.Duration(-1)

// newFanNet returns the fanNet and its close.
func newFanNet(t *testing.T, addrs ...string) (*fanNet, func()) {
	t.Helper()
	f := &fanNet{net: NewSimNet(clock.Realtime, 0)}
	ended := make(chan struct{})
	var srvs []*Server
	for _, addr := range addrs {
		l, err := f.net.Listen(addr, NodeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		srvs = append(srvs, Serve(l, func(m *proto.Message) *proto.Message {
			if m.Off < 0 {
				<-ended
			}
			time.Sleep(time.Duration(m.Off))
			r := m.Reply(proto.StatusOK)
			if m.Length > 0 {
				r.Payload = bufpool.Get(int(m.Length))
			}
			f.calls.Add(1) // counted with the lease taken: awaitQuiet relies on it
			return r
		}))
	}
	f.peers = NewPeers(f.net.Dialer("caller", NodeConfig{}), clock.Realtime)
	return f, func() {
		close(ended)
		f.peers.CloseAll()
		for _, s := range srvs {
			s.Close()
		}
	}
}

func fanOp() *opctx.Op { return opctx.New(clock.Realtime, 0) }

// sendBranch issues one replicate at version ver, answered after delay with
// a pooled payload of n bytes.
func sendBranch(fl *Flight, target int, addr string, ver uint64, delay time.Duration, n int) {
	m := proto.GetMessage()
	m.Op = proto.OpReplicate
	m.Version = ver
	m.Off = int64(delay)
	m.Length = uint32(n)
	fl.Go(target, addr, m)
}

// awaitQuiet waits until the replicas have served calls requests and the
// stragglers among them have landed, then checks that nothing they carried
// leaked: no payload lease (every flight has Finished, so no pending entry).
func awaitQuiet(t *testing.T, f *fanNet, leases, calls int64, addrs ...string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for f.calls.Load() != calls || bufpool.InUse() != leases {
		if time.Now().After(deadline) {
			t.Fatalf("not quiet: %d calls served (want %d), %d leases (started at %d)",
				f.calls.Load(), calls, bufpool.InUse(), leases)
		}
		time.Sleep(time.Millisecond)
	}
	for _, addr := range addrs {
		if c, err := f.peers.Get(addr); err != nil || c.pendingCalls() != 0 {
			t.Fatalf("%s: %d pending calls (dial: %v)", addr, c.pendingCalls(), err)
		}
	}
}

func TestBroadcasterAllAck(t *testing.T) {
	clock.Test(t, func() {
		addrs := []string{"a", "b", "c"}
		f, cleanup := newFanNet(t, addrs...)
		defer cleanup()
		op := fanOp()
		defer op.Release()
		for round := 0; round < 50; round++ {
			fl := f.peers.Begin(op, 3, time.Second)
			for i, addr := range addrs {
				sendBranch(fl, i, addr, 42, 0, 0)
			}
			seen := map[int]bool{}
			for i := 0; i < 3; i++ {
				r, ok := fl.Next()
				if !ok || r.Err || r.Status != proto.StatusOK || r.Version != 42 {
					t.Fatalf("round %d: bad result %+v, %v", round, r, ok)
				}
				if seen[r.Target] {
					t.Fatalf("round %d: duplicate target %d", round, r.Target)
				}
				seen[r.Target] = true
			}
			if r, ok := fl.Next(); ok {
				t.Fatalf("round %d: fourth result %+v from three branches", round, r)
			}
			fl.Finish()
		}
		if got := f.calls.Load(); got != 150 {
			t.Fatalf("replicas saw %d calls, want 150", got)
		}
		if n := len(op.Trail()); n != 1 || op.Trail()[0].Stage != opctx.StageNet || op.Trail()[0].Count != 150 {
			t.Fatalf("trail = %+v, want 150 net round trips", op.Trail())
		}
	})
}

// TestBroadcasterEarlyFinish is the commit-rule shape: the caller decides on
// a majority and Finishes while a slow straggler is still in flight. The
// straggler's late response must be dropped with its payload released, and
// the recycled flight must be reusable without cross-talk from it.
func TestBroadcasterEarlyFinish(t *testing.T) {
	clock.Test(t, func() {
		f, cleanup := newFanNet(t, "ok", "slow") // nothing listens at "dead"
		defer cleanup()
		leases := bufpool.InUse()
		op := fanOp()
		defer op.Release()
		for round := 0; round < 20; round++ {
			fl := f.peers.Begin(op, 3, time.Second)
			sendBranch(fl, 0, "ok", uint64(round), 0, 4096)
			sendBranch(fl, 1, "slow", uint64(round), 3*time.Millisecond, 4096)
			sendBranch(fl, 2, "dead", uint64(round), 0, 4096)
			acks, errs := 0, 0
			for i := 0; i < 2; i++ {
				r, ok := fl.Next()
				switch {
				case !ok:
					t.Fatalf("round %d: flight stopped early", round)
				case r.Err:
					errs++
				case r.Version != uint64(round):
					t.Fatalf("round %d: result %+v of another round", round, r)
				default:
					acks++
				}
			}
			fl.Finish() // the straggler is still outstanding
			if acks != 1 || errs != 1 {
				t.Fatalf("round %d: %d acks, %d errors; want the fast replica and the dead one", round, acks, errs)
			}
		}
		awaitQuiet(t, f, leases, 40, "ok", "slow")
	})
}

// TestBroadcasterDispatchAfterClose: a fan-out racing the pool's teardown
// must still settle — on fresh connections — never deadlock or panic.
func TestBroadcasterDispatchAfterClose(t *testing.T) {
	clock.Test(t, func() {
		f, cleanup := newFanNet(t, "a", "b")
		defer cleanup()
		f.peers.CloseAll()
		op := fanOp()
		defer op.Release()
		fl := f.peers.Begin(op, 2, time.Second)
		sendBranch(fl, 0, "a", 1, 0, 0)
		sendBranch(fl, 1, "b", 1, 0, 0)
		for i := 0; i < 2; i++ {
			if r, ok := fl.Next(); !ok || r.Err {
				t.Fatalf("post-close branch failed: %+v, %v", r, ok)
			}
		}
		fl.Finish()
	})
}

// TestFlightEarlyFinishStragglers drives the claimed-but-not-posted window:
// flights Finish with two stragglers landing within microseconds of the
// result that was waited for (instrumented, under -race some 15 % of them are
// caught claimed and a few of those not yet posted; the rest land in a later
// lease), and the recycled Flight is leased again at once, in a tight loop
// of one-branch calls, while they do. A straggler's completion must never surface in a later lease, and its
// pooled payload must be released whichever side of Finish it lands on.
func TestFlightEarlyFinishStragglers(t *testing.T) {
	clock.Test(t, func() {
		f, cleanup := newFanNet(t, "fast", "s1", "s2")
		defer cleanup()
		leases := bufpool.InUse()
		op := fanOp()
		defer op.Release()
		var ver uint64
		for round := 0; round < 300; round++ {
			ver++
			lag := time.Duration(round%5) * time.Microsecond
			fl := f.peers.Begin(op, 3, time.Second)
			sendBranch(fl, 0, "s1", ver, lag, 4096)
			sendBranch(fl, 1, "s2", ver, lag, 4096)
			sendBranch(fl, 2, "fast", ver, 0, 4096)
			if r, ok := fl.Next(); !ok || r.Err || r.Version != ver {
				t.Fatalf("round %d: %+v, %v", round, r, ok)
			}
			fl.Finish()
			for i := 0; i < 8; i++ {
				ver++
				fl := f.peers.Begin(op, 1, time.Second)
				sendBranch(fl, 7, "fast", ver, 0, 512)
				r, ok := fl.Next()
				if !ok || r.Err || r.Target != 7 || r.Version != ver {
					t.Fatalf("round %d call %d: foreign completion %+v, %v (want target 7 v%d)", round, i, r, ok, ver)
				}
				if r, ok := fl.Next(); ok {
					t.Fatalf("round %d call %d: second completion %+v of one branch", round, i, r)
				}
				fl.Finish()
			}
		}
		awaitQuiet(t, f, leases, 300*(3+8), "fast", "s1", "s2")
	})
}

// TestFlightConnDeath: when a connection dies mid-flight every slot
// outstanding on it completes as Err without waiting out any window, and the
// dead connection leaves the pool.
func TestFlightConnDeath(t *testing.T) {
	clock.Test(t, func() {
		f, cleanup := newFanNet(t, "a")
		defer cleanup()
		op := fanOp() // no deadline, no cap: only the connection's death ends the wait
		defer op.Release()
		fl := f.peers.Begin(op, 3, 0)
		for i := 0; i < 3; i++ {
			sendBranch(fl, i, "a", 1, forever, 0)
		}
		c, err := f.peers.Get("a")
		if err != nil {
			t.Fatal(err)
		}
		time.AfterFunc(20*time.Millisecond, func() { c.conn.Close() })
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 3; i++ {
				if r, ok := fl.Next(); !ok || !r.Err {
					t.Errorf("result %d = %+v, %v; want a transport error", i, r, ok)
				}
			}
			if r, ok := fl.Next(); ok {
				t.Errorf("fourth result %+v from three branches", r)
			}
			fl.Finish()
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Next blocked after the connection died")
		}
		if f.peers.cached("a") {
			t.Error("dead connection still cached")
		}
		if n := c.pendingCalls(); n != 0 {
			t.Errorf("%d pending entries after connection death", n)
		}
	})
}

// TestFlightWindow: a silent peer ends the wait at the flight's window: Next
// reports not-ok, Finish leaves no pending entry, and the connection stays
// cached.
func TestFlightWindow(t *testing.T) {
	clock.Test(t, func() {
		f, cleanup := newFanNet(t, "a", "b")
		defer cleanup()
		for _, a := range []string{"a", "b"} {
			if _, err := f.peers.Get(a); err != nil {
				t.Fatal(err)
			}
		}
		f.net.Partition("caller", "b")
		op := fanOp()
		defer op.Release()
		t0 := time.Now()
		fl := f.peers.Begin(op, 2, 30*time.Millisecond)
		sendBranch(fl, 0, "a", 1, 0, 0)
		sendBranch(fl, 1, "b", 1, 0, 0)
		if r, ok := fl.Next(); !ok || r.Err || r.Target != 0 {
			t.Fatalf("first result %+v, %v", r, ok)
		}
		if r, ok := fl.Next(); ok {
			t.Fatalf("result %+v from a partitioned peer", r)
		}
		if r, ok := fl.Next(); ok {
			t.Fatalf("stopped flight yielded %+v", r)
		}
		fl.Finish()
		if d := time.Since(t0); d > 2*time.Second {
			t.Errorf("took %v, want under 2s", d)
		}
		for _, a := range []string{"a", "b"} {
			c, _ := f.peers.Get(a)
			if !f.peers.cached(a) || c.pendingCalls() != 0 {
				t.Errorf("%s cached=%v pending=%d", a, f.peers.cached(a), c.pendingCalls())
			}
		}
	})
}

// TestFlightWide: an owner's recycled flight grows to a fan-out wider than
// any before it — 33 branches after one — and keeps the room for the next.
func TestFlightWide(t *testing.T) {
	clock.Test(t, func() {
		f, cleanup := newFanNet(t, "a", "b")
		defer cleanup()
		op := fanOp()
		defer op.Release()
		first := f.peers.Begin(op, 1, time.Second)
		first.Finish()
		for _, n := range []int{33, 2} {
			fl := f.peers.Begin(op, n, time.Second)
			if fl != first || cap(fl.done) < 33 {
				t.Fatalf("%d branches: flight %p with room for %d, want the recycled %p grown to 33", n, fl, cap(fl.done), first)
			}
			for i := 0; i < n; i++ {
				sendBranch(fl, i, []string{"a", "b"}[i%2], uint64(i), 0, 0)
			}
			seen := map[int]bool{}
			for i := 0; i < n; i++ {
				r, ok := fl.Next()
				if !ok || r.Err || r.Version != uint64(r.Target) {
					t.Fatalf("result %d = %+v, %v", i, r, ok)
				}
				seen[r.Target] = true
			}
			fl.Finish()
			if len(seen) != n {
				t.Fatalf("saw %d distinct targets, want %d", len(seen), n)
			}
		}
	})
}

// TestFlightNextReplySequencesPerTarget: the shape the master's control-plane
// fan-outs have. Each target has a queue of calls; a target's next call goes
// out when its previous one is answered, all on one flight. NextReply hands
// over each response with its payload lease, reports an unreachable target as
// a nil response, and a reply left untaken when the awaiter stops is released by
// Finish.
func TestFlightNextReplySequencesPerTarget(t *testing.T) {
	clock.Test(t, func() {
		addrs := []string{"a", "b", "c"}
		f, cleanup := newFanNet(t, addrs...)
		defer cleanup()
		leases := bufpool.InUse()
		op := fanOp()
		defer op.Release()
		const perTarget = 4
		targets := append(addrs, "nobody") // no listener: its branch fails at dial
		fl := f.peers.Begin(op, len(targets)*perTarget, time.Second)
		sent := make([]uint64, len(targets))
		send := func(i int) {
			sent[i]++
			// "a" is the slowest, so the targets finish their queues at different times.
			sendBranch(fl, i, targets[i], sent[i], time.Duration(3-i)*100*time.Microsecond, 512)
		}
		for i := range targets {
			send(i)
		}
		answered := make([]uint64, len(targets))
		for out := len(targets); out > 0; out-- {
			i, resp, ok := fl.NextReply()
			if !ok {
				t.Fatal("flight stopped with branches outstanding")
			}
			if resp == nil {
				if targets[i] != "nobody" {
					t.Fatalf("target %s failed", targets[i])
				}
				continue
			}
			// One call outstanding per target: answers arrive in the order sent.
			if answered[i]++; resp.Version != answered[i] || len(resp.Payload) != 512 {
				t.Fatalf("target %s answer %d: version %d with %d payload bytes", targets[i], answered[i], resp.Version, len(resp.Payload))
			}
			bufpool.Put(resp.Payload)
			proto.Recycle(resp)
			if sent[i] < perTarget {
				send(i)
				out++
			}
		}
		if _, _, ok := fl.NextReply(); ok {
			t.Fatal("NextReply yielded a branch after every one was taken")
		}
		sendBranch(fl, 0, "a", 9, 0, 512) // answered or not, nobody takes it
		fl.Finish()
		for i, addr := range addrs {
			if answered[i] != perTarget {
				t.Fatalf("%s answered %d of %d", addr, answered[i], perTarget)
			}
		}
		awaitQuiet(t, f, leases, int64(len(addrs)*perTarget+1), addrs...)
	})
}
