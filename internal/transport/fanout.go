package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"ursa/internal/bufpool"
	"ursa/internal/opctx"
	"ursa/internal/proto"
)

// Caller issues one RPC to one address. *Peers satisfies it; tests and
// micro-benchmarks substitute stubs.
type Caller interface {
	Do(op *opctx.Op, addr string, m *proto.Message, cap time.Duration) (*proto.Message, error)
}

// FanResult is one replica's answer to a fan-out call, reduced to the
// fields commit rules need. The response message itself never escapes the
// worker: its payload lease and frame are settled before the result is
// posted, so a Flight carries no ownership.
type FanResult struct {
	// Target is the caller-chosen index identifying which branch of the
	// fan-out this result belongs to (replica index, shipment index).
	Target  int
	Status  proto.Status
	Version uint64
	// Err is true when the call failed at the transport layer (timeout,
	// connection loss); Status is meaningless then.
	Err bool
}

// flightWidth is the result-channel capacity a pooled Flight carries.
// Fan-outs wider than this (no real placement is) fall back to a fresh
// unpooled channel.
const flightWidth = 32

// Flight is one fan-out in progress: n branches dispatched, results
// arriving on one collector channel. It is pooled; Begin leases it and the
// last reference (the caller's Finish, or the final straggler's worker)
// returns it. The reference protocol is refs = n+1: one per branch, one
// for the caller. That lets the caller Finish after an early commit
// decision while stragglers are still running — they post into the still-
// live Flight and the last of them recycles it.
type Flight struct {
	b    *Broadcaster
	ch   chan FanResult
	refs atomic.Int32
	// pooled records whether ch has the pooled width (wider fan-outs get a
	// throwaway channel and the Flight is not recycled).
	pooled bool
}

// fanJob is one branch of a fan-out, handed to a parked worker.
type fanJob struct {
	fl     *Flight
	target int
	addr   string
	op     *opctx.Op
	cap    time.Duration
	m      *proto.Message
}

// fanWorker is a parked goroutine owning grown stack + inbox, reused
// across fan-outs — the same economics as the transport server's
// per-connection workers: replication chains run deep, and a fresh
// goroutine per branch re-grows the same stack every write.
type fanWorker struct {
	in chan fanJob
}

// Broadcaster dispatches fan-out branches onto pooled workers and collects
// results through pooled Flights. One Broadcaster per fan-out site (vdisk,
// chunkserver); Close releases the parked workers.
type Broadcaster struct {
	caller Caller

	mu     sync.Mutex
	idle   []*fanWorker
	closed bool
}

// NewBroadcaster returns a Broadcaster issuing calls through caller.
func NewBroadcaster(caller Caller) *Broadcaster {
	return &Broadcaster{caller: caller}
}

// flightPool recycles Flights (struct + collector channel). A Flight is
// recyclable only when refs hits zero with its channel drained.
var flightPool = sync.Pool{New: func() any {
	return &Flight{ch: make(chan FanResult, flightWidth), pooled: true}
}}

// Begin opens a fan-out of n branches. The caller then issues n Go calls,
// consumes results with Next, and must call Finish exactly once (it may do
// so before all results arrived; stragglers settle themselves).
func (b *Broadcaster) Begin(n int) *Flight {
	var fl *Flight
	if n <= flightWidth {
		fl = flightPool.Get().(*Flight)
	} else {
		fl = &Flight{ch: make(chan FanResult, n)}
	}
	fl.b = b
	fl.refs.Store(int32(n) + 1)
	return fl
}

// Go dispatches one branch. The message must be fully filled in by the
// caller, who transfers ownership: the branch consumes one payload
// reference (via Do on every path) and the response never escapes the
// worker. Callers sharing one payload across branches Retain once per
// branch before Go. The branch holds its own reference to op until its call
// returns, so a straggler outliving an early Finish — and the op's creator —
// never runs on a recycled op.
func (fl *Flight) Go(target int, addr string, op *opctx.Op, cap time.Duration, m *proto.Message) {
	op.Retain()
	j := fanJob{fl: fl, target: target, addr: addr, op: op, cap: cap, m: m}
	b := fl.b
	b.mu.Lock()
	if n := len(b.idle); n > 0 && !b.closed {
		w := b.idle[n-1]
		b.idle = b.idle[:n-1]
		b.mu.Unlock()
		w.in <- j
		return
	}
	closed := b.closed
	b.mu.Unlock()
	if closed {
		// Dispatch after Close (teardown race): run the branch on a fresh
		// goroutine so the flight still settles and leases are released.
		go b.runJob(j)
		return
	}
	w := &fanWorker{in: make(chan fanJob)}
	go b.workerLoop(w, j)
}

// Next yields the next arriving result. The caller must take at most n
// results for a flight of n branches.
func (fl *Flight) Next() FanResult { return <-fl.ch }

// Finish drops the caller's reference. After Finish the caller must not
// touch the flight again; outstanding branches complete on their own and
// the last one recycles the flight.
func (fl *Flight) Finish() { fl.release() }

// release drops one reference; the holder of the last one drains any
// un-consumed results and returns the flight to the pool.
func (fl *Flight) release() {
	if fl.refs.Add(-1) != 0 {
		return
	}
	// Sole owner now: drain results the caller never consumed (early
	// commit decision) so the channel is empty for the next lease.
	for {
		select {
		case <-fl.ch:
		default:
			if fl.pooled {
				fl.b = nil
				flightPool.Put(fl)
			}
			return
		}
	}
}

// workerLoop runs j, then parks the worker for reuse until Close.
func (b *Broadcaster) workerLoop(w *fanWorker, j fanJob) {
	for {
		b.runJob(j)
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			return
		}
		b.idle = append(b.idle, w)
		b.mu.Unlock()
		var ok bool
		if j, ok = <-w.in; !ok {
			return
		}
	}
}

// runJob issues one branch call and posts its result. The response is
// fully consumed here: payload lease settled, frame recycled.
func (b *Broadcaster) runJob(j fanJob) {
	resp, err := b.caller.Do(j.op, j.addr, j.m, j.cap)
	j.op.Release()
	res := FanResult{Target: j.target, Err: err != nil || resp == nil}
	if resp != nil {
		res.Status = resp.Status
		res.Version = resp.Version
		bufpool.Put(resp.Payload)
		proto.Recycle(resp)
	}
	j.fl.ch <- res
	j.fl.release()
}

// Close releases the parked workers. In-flight branches finish on their
// own; branches dispatched after Close run on fresh goroutines.
func (b *Broadcaster) Close() {
	b.mu.Lock()
	idle := b.idle
	b.idle = nil
	b.closed = true
	b.mu.Unlock()
	for _, w := range idle {
		close(w.in)
	}
}
