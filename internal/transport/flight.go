package transport

import (
	"fmt"
	"sync"
	"time"

	"ursa/internal/bufpool"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/util"
)

// FanResult is one branch's answer to a fan-out call, reduced to the fields
// commit rules need. The response message itself never escapes the flight:
// Next settles its payload lease and frame before returning the result.
type FanResult struct {
	// Target is the caller-chosen index identifying which branch of the
	// fan-out this result belongs to (replica index, shipment index).
	Target  int
	Status  proto.Status
	Version uint64
	// Err is true when the call failed at the transport layer (dial,
	// connection loss); Status is meaningless then.
	Err bool
}

// Flight is a set of calls awaited by the goroutine that issued them: the
// transport's one way to call, whether the set is a replication fan-out or
// the single call of Peers.Do. The issuer — the awaiter — Begins it on a
// Peers, sends each branch itself with Go, takes completions with Next or
// Wait, and Finishes it exactly once; no goroutine runs on a branch's behalf.
// One completion channel and one timer, for the window min(op budget, cap)
// from Begin, serve the whole set. Both are the flight's for life: the Peers
// that begins a flight recycles it (flights), so a flight is made once per
// call its Peers has ever had in the air at once, and never crosses to
// another Peers — a cluster, a test or a synctest bubble of its own. A flight
// grows to the widest set its Peers has sent on it.
//
// A slot belongs to the awaiter, except between its registration in a
// Client's pending table and its completion: in that interval the dispatcher
// of that connection (recvLoop, failAll) may claim it — remove the pending
// entry — and must then complete it: write the result into the slot and post
// the slot's index on done, which hands the slot back and is the last the
// dispatcher touches of the flight. Finish forgets every slot still
// registered, so a late response finds no entry and is dropped by the
// dispatcher; for a slot the dispatcher has claimed but not yet posted it
// waits for the post. Hence no dispatcher touches a Flight after Finish
// returns, no branch outlives it, and nothing but the awaiter ever holds the
// op.
type Flight struct {
	peers  *Peers // the owner: it dials the branches and recycles the flight
	op     *opctx.Op
	timer  *time.Timer      // made at the first windowed Begin, kept for life
	window <-chan time.Time // timer.C while this flight's wait is bounded, else nil
	// stop is why the flight no longer waits: its window expired, or the op
	// was already spent at Begin. Sticky.
	stop error

	// done carries the index of each slot that completes, once: room for
	// every slot, so a post never blocks, and empty whenever recycled.
	done chan int
	// issued counts the slots Go has used, taken those whose result the
	// awaiter has handed out.
	issued, taken int
	slots         []slot
}

// slot is one branch. The awaiter fills in the first group before the slot
// is registered; whoever completes the slot writes the second before posting
// its index; the flags are the awaiter's own.
type slot struct {
	target int
	addr   string
	c      *Client // nil: no connection was tried (dial failure, spent flight)
	id     uint64
	opc    proto.Op
	sent   time.Time

	took time.Duration // send to completion: the branch's StageNet
	resp *proto.Message
	err  error

	posted, taken bool // its index received from done; its result handed out
}

// flights is the free list of the flights a Peers has finished, each with its
// done channel and timer.
type flights struct {
	mu   sync.Mutex
	free []*Flight
}

// get returns a finished flight with room for n slots, or a new one.
func (h *flights) get(n int) *Flight {
	var fl *Flight
	h.mu.Lock()
	if k := len(h.free); k > 0 {
		fl, h.free = h.free[k-1], h.free[:k-1]
	}
	h.mu.Unlock()
	if fl == nil {
		fl = &Flight{}
	}
	if cap(fl.slots) < n {
		fl.done, fl.slots = make(chan int, n), make([]slot, n)
	}
	fl.slots = fl.slots[:n]
	return fl
}

func (h *flights) put(fl *Flight) {
	h.mu.Lock()
	h.free = append(h.free, fl)
	h.mu.Unlock()
}

// Begin opens a flight of n branches on behalf of op, every wait in it
// bounded by the op's remaining budget and the optional cap (cap<=0 means the
// deadline alone governs). The caller issues up to n Go calls, consumes
// completions with Next or Wait, and must call Finish exactly once.
func (p *Peers) Begin(op *opctx.Op, n int, cap time.Duration) *Flight {
	fl := p.flights.get(n)
	fl.peers, fl.op = p, op
	if wait, ok := op.Budget(cap); !ok {
		fl.stop = op.Err() // spent before it began
	} else if wait > 0 {
		if fl.timer == nil {
			fl.timer = time.NewTimer(wait)
		} else {
			fl.timer.Reset(wait)
		}
		fl.window = fl.timer.C
	}
	return fl
}

// Go sends one branch to addr from the calling goroutine and returns its
// slot index. The message must be fully filled in by the caller, who
// transfers ownership: Go stamps the op's identity and remaining budget into
// it — the deadline decrement rule — and consumes one payload reference on
// every path (callers sharing one payload across branches Retain once per
// branch). A branch that cannot be sent — dial failure, closed connection,
// spent op — is a slot that has already failed.
func (fl *Flight) Go(target int, addr string, m *proto.Message) int {
	c, err := fl.peers.client(fl.op, addr)
	i := fl.issued
	fl.issued++
	s := &fl.slots[i]
	s.target, s.addr, s.opc = target, addr, m.Op
	if err == nil {
		err = fl.stop
	}
	if err == nil {
		s.c = c
		m.OpID, m.Budget = fl.op.ID(), fl.op.WireBudget()
		s.sent = fl.peers.clk.Now()
		if !c.register(m, callRef{fl, i}) {
			err = ErrConnClosed
		}
	}
	if err != nil {
		bufpool.Put(m.Payload)
		s.err = err
		fl.done <- i // completed here, unsent
		return i
	}
	// The ID is copied out first: once Send hands m over (the simulated
	// network passes pointers), the receiving side may recycle it.
	s.id = m.ID
	if err := c.conn.Send(m); err != nil && c.forget(s.id) {
		// Never to be claimed, so ours to complete. (Had the dispatcher
		// claimed it — the connection died under us — it does.)
		s.err = ErrConnClosed
		fl.done <- i
	}
	return i
}

// complete is the dispatcher's half: it delivers a claimed slot's response
// (nil: the connection died) and posts the slot.
func (fl *Flight) complete(i int, resp *proto.Message) {
	s := &fl.slots[i]
	s.took = fl.peers.clk.Now().Sub(s.sent)
	s.resp = resp
	if resp == nil {
		s.err = ErrConnClosed
	}
	fl.done <- i
}

// await blocks until slot want — any slot, if want < 0 — has been posted,
// and takes it. It returns nil once none will be: every slot has been taken,
// or the window expired.
func (fl *Flight) await(want int) *slot {
	// Posted while the awaiter waited for another slot, and still held.
	for i := range fl.slots[:fl.issued] {
		if s := &fl.slots[i]; s.posted && !s.taken && (want < 0 || want == i) {
			return fl.take(s)
		}
	}
	for fl.taken < fl.issued && fl.stop == nil {
		select {
		case i := <-fl.done:
			s := &fl.slots[i]
			s.posted = true
			if want < 0 || want == i {
				return fl.take(s)
			}
		case <-fl.window:
			fl.stop = fmt.Errorf("no response within the call's window: %w", util.ErrTimeout)
		}
	}
	return nil
}

// take hands a posted slot's result to the awaiter and closes its books: the
// round trip lands on the op's net stage, and a transport fault — not a
// timeout, which is the flight's and says nothing about the connection —
// evicts the cached connection so the next call redials.
func (fl *Flight) take(s *slot) *slot {
	s.taken = true
	fl.taken++
	if s.c != nil {
		fl.op.ObserveStage(opctx.StageNet, s.took)
		if s.err != nil {
			fl.peers.drop(s.addr, s.c)
		}
	}
	return s
}

// Next yields a completed branch nobody has taken yet, in completion order,
// blocking until there is one. It reports false when none will come: every
// issued branch has been taken, or the window expired — the branches still
// outstanding then count as failed, and Finish forgets them.
func (fl *Flight) Next() (FanResult, bool) {
	s := fl.await(-1)
	if s == nil {
		return FanResult{}, false
	}
	r := FanResult{Target: s.target, Err: s.err != nil}
	if s.resp != nil {
		r.Status, r.Version = s.resp.Status, s.resp.Version
		discard(s.resp)
	}
	return r, true
}

// NextReply is Next for an awaiter that reads the reply itself: the next
// completed branch's target and its response — payload lease included, the
// caller's to settle — or nil when the branch failed at the transport.
func (fl *Flight) NextReply() (target int, resp *proto.Message, ok bool) {
	s := fl.await(-1)
	if s == nil {
		return 0, nil, false
	}
	return s.target, s.resp, true
}

// Wait blocks until the branch in slot i (Go's return value) completes and
// hands its response, payload lease included, to the caller. A window expiry
// fails it with util.ErrTimeout; the call is then forgotten by Finish and its
// late response dropped.
func (fl *Flight) Wait(i int) (*proto.Message, error) {
	s := fl.await(i)
	err := fl.stop
	if s != nil {
		if s.err == nil {
			return s.resp, nil
		}
		err = s.err
	}
	return nil, fmt.Errorf("rpc call op=%d: %w", fl.slots[i].opc, err)
}

// Expire ends the flight's window now: its awaiter's wait fails as if the
// window had passed. Any goroutine may call it while it knows the flight is
// not finished.
func (fl *Flight) Expire() {
	if fl.window != nil {
		fl.timer.Reset(0)
	}
}

// Finish ends the flight; the caller must not touch it again. Calls still
// registered are forgotten, completions nobody took are released, and the
// flight is recycled once no dispatcher can reach it any more.
func (fl *Flight) Finish() {
	for i := range fl.slots[:fl.issued] {
		s := &fl.slots[i]
		if !s.posted && s.c != nil && s.c.forget(s.id) {
			// As far as the op is concerned the round trip ends here.
			fl.op.ObserveStage(opctx.StageNet, fl.peers.clk.Now().Sub(s.sent))
		} else if !s.taken {
			// Completed and not taken — or claimed and not yet posted: the
			// dispatcher is between its table and our slot; wait for it.
			for !s.posted {
				fl.slots[<-fl.done].posted = true
			}
			discard(fl.take(s).resp)
		}
		*s = slot{}
	}
	if fl.window != nil {
		fl.timer.Stop() // nothing is delivered after Stop: the next Begin sees no stale expiry
	}
	fl.op, fl.window, fl.stop = nil, nil, nil
	fl.issued, fl.taken = 0, 0
	fl.peers.flights.put(fl)
}

// discard releases a response nobody will read: the message dies here, so its
// payload lease dies with it and the frame goes back to the message pool.
func discard(m *proto.Message) {
	if m != nil {
		bufpool.Put(m.Payload)
		proto.Recycle(m)
	}
}
