// Package opctx carries one I/O operation's identity, time budget, and
// latency breadcrumbs through every layer of the stack. URSA's replication
// protocol is built on timeout-governed commit rules (all-ack or
// majority-after-timeout, §4.2.1); opctx makes that timeout policy a single
// client-owned decision instead of a per-layer constant: the client derives
// an absolute deadline once at the top of the stack, the remaining budget
// is stamped into every wire message, and each layer below (transport
// waits, chunk-server replication fan-out, version-gap queueing) bounds its
// own waits by what is left of the op's budget. A wait ends when its event
// arrives or that budget runs out; an op is never abandoned any other way.
//
// An Op also records where its time went: each layer that services the op
// observes a named stage (queue, net, primary-ssd, backup-journal and its
// backup-jqueue/backup-jflush split, replay, repl-wait) into the op's
// breadcrumb trail and, when one is attached, a metrics sink — the
// per-stage latency decomposition the figure benches report.
//
// Deadlines are model time (the clock.Clock the op was built with), which is
// wall time on the real clock and virtual time inside a clock.Run bubble.
//
// Ops are pooled leases: New (and Background, FromWire) lease an op to its
// creator, which Releases it once, when the operation has returned. Nothing
// else holds it: an RPC made on an op's behalf is awaited by the goroutine
// that issued it (see transport.Flight). Release poisons the op — its
// deadline long past and its sink dropped, so a stale pointer fails closed
// instead of spending the next operation's budget — and recycles it. An op
// that is never released is simply collected; InUse then stays up.
package opctx

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ursa/internal/clock"
	"ursa/internal/util"
)

// Stage names a point on the request path where an op spends time. The
// stages decompose one hybrid write end to end: client admission (queue),
// RPC round trips (net), the primary's SSD service (primary-ssd), the
// backup's journal append or bypass write (backup-journal), waiting on a
// predecessor pipelined write's version slot (replay), the pipelined write
// path's extent-dependency and in-order-ack waits (apply-wait,
// commit-wait), and the primary's wait for backup acks (repl-wait).
type Stage uint8

// Request-path stages.
const (
	// StageQueue is client-side admission: rate limiting and fragment
	// fan-out scheduling before the first byte hits the network.
	StageQueue Stage = iota
	// StageNet is one RPC round trip: request sent until the response is
	// matched (includes the remote handler's service time).
	StageNet
	// StagePrimarySSD is a primary server's local device service: a read
	// or write of its bare SSD store, whatever role its replica plays for
	// the chunk. It names the kind of server, not the replica's role.
	StagePrimarySSD
	// StageBackupJournal is a backup server's local device service: a
	// journal append, a journal-bypassing store write or a journal-merged
	// read, whatever role its replica plays for the chunk (a temporary
	// primary included). It names the kind of server, not the replica's
	// role.
	StageBackupJournal
	// StageJournalQueue is the slice of StageBackupJournal spent waiting in
	// a journal's group-commit queue for a leader to claim the record.
	StageJournalQueue
	// StageJournalFlush is the slice of StageBackupJournal spent in the
	// claimed batch's single sequential journal write.
	StageJournalFlush
	// StageReplay is time spent queued on a chunk's version slot while a
	// predecessor pipelined write is still applying.
	StageReplay
	// StageApplyWait is time an admitted write spends blocked on
	// overlapping pending predecessors before its own device apply may
	// start (per-chunk write pipelining's extent-dependency wait).
	StageApplyWait
	// StageCommitWait is time spent after a write's own apply waiting for
	// the chunk's committed version to reach the write's slot, so acks go
	// out strictly in version order.
	StageCommitWait
	// StageReplWait is the primary's wait for backup acks (the §4.2.1
	// commit-rule window).
	StageReplWait
	// StageColdFetch is time a read (or first write) on an object-backed
	// chunk spends demand-fetching cold extents from the object store.
	StageColdFetch

	numStages
)

var stageNames = [numStages]string{
	"queue",
	"net",
	"primary-ssd",
	"backup-journal",
	"backup-jqueue",
	"backup-jflush",
	"replay",
	"apply-wait",
	"commit-wait",
	"repl-wait",
	"cold-fetch",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// Stages lists every stage in path order (for table rendering).
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// Sink receives completed stage measurements. *metrics.Registry implements
// it; the indirection keeps opctx free of dependencies above clock/util.
type Sink interface {
	ObserveStage(stage string, d time.Duration)
}

// nextID assigns process-wide monotonic op IDs. Ops reconstructed from the
// wire keep the originator's ID so one op is traceable across layers.
var nextID atomic.Uint64

// errExpired is what Err answers once the deadline has passed.
var errExpired = fmt.Errorf("opctx: op deadline passed: %w", util.ErrTimeout)

// Op is one operation's request context. The zero value is not usable;
// construct with New, Background, or FromWire. Ops are safe for concurrent
// use by the goroutines servicing one operation while its creator holds the
// lease (see the package comment).
type Op struct {
	id       uint64
	clk      clock.Clock
	deadline time.Time // zero = no deadline
	sink     Sink
	leased   atomic.Bool // cleared by Release

	mu    sync.Mutex
	trail [numStages]stageCell
}

type stageCell struct {
	count int64
	total time.Duration
}

var opPool = sync.Pool{New: func() any { return new(Op) }}

// inUse counts leased ops: New minus Releases.
var inUse atomic.Int64

// pastDeadline is set and long past: the deadline of a released op, and of a
// wire op whose sender had already spent its budget.
var pastDeadline = time.Unix(0, 1)

// New leases an op with a fresh ID and a deadline budget from now on clk to
// the caller, who must Release it once. budget<=0 means no deadline. This is
// the one place on the request path where an absolute deadline is derived;
// every layer below decrements it.
func New(clk clock.Clock, budget time.Duration) *Op {
	if clk == nil {
		clk = clock.Realtime
	}
	o := opPool.Get().(*Op)
	o.id = nextID.Add(1)
	o.clk = clk
	o.deadline = time.Time{}
	if budget > 0 {
		o.deadline = clk.Now().Add(budget)
	}
	o.trail = [numStages]stageCell{}
	o.leased.Store(true)
	inUse.Add(1)
	return o
}

// Release ends the lease: it poisons the op and returns it to the pool.
// Releasing an op that is not leased panics.
func (o *Op) Release() {
	if !o.leased.Swap(false) {
		panic("opctx: Release of an op that is not in use")
	}
	o.deadline = pastDeadline
	o.sink = nil
	inUse.Add(-1)
	opPool.Put(o)
}

// InUse reports the number of leased ops. A quiesced system whose ops are
// all released by their creators leaks iff this is nonzero.
func InUse() int64 { return inUse.Load() }

// Background returns an op with no deadline — for maintenance work that is
// not answering a client (journal replay, background repair).
func Background(clk clock.Clock) *Op { return New(clk, 0) }

// FromWire reconstructs the op a received message belongs to: the sender's
// op ID and its remaining budget at send time, re-anchored at the local
// clock. The one-way transit time is accepted skew — the originator still
// enforces its own absolute deadline, so a receiver can only ever err on
// the side of working slightly too long, never of cutting the client short.
// id==0 (a locally originated message) gets a fresh ID; budget==0 means no
// deadline, and a negative budget is spent (WireBudget never sends one, so
// only a foreign peer does).
func FromWire(clk clock.Clock, id uint64, budget time.Duration) *Op {
	o := New(clk, budget)
	if id != 0 {
		o.id = id
	}
	if budget < 0 {
		o.deadline = pastDeadline
	}
	return o
}

// WithSink attaches a stage-measurement sink and returns the op.
func (o *Op) WithSink(s Sink) *Op {
	o.sink = s
	return o
}

// ID returns the op's identifier.
func (o *Op) ID() uint64 { return o.id }

// Clock returns the clock the op's deadline lives on.
func (o *Op) Clock() clock.Clock { return o.clk }

// Err returns an error matching util.ErrTimeout once the deadline has
// passed, else nil.
func (o *Op) Err() error {
	if rem, has := o.Remaining(); has && rem <= 0 {
		return errExpired
	}
	return nil
}

// Remaining returns the unspent deadline budget. ok=false when the op has
// no deadline; a non-positive duration means the deadline has passed.
func (o *Op) Remaining() (time.Duration, bool) {
	if o.deadline.IsZero() {
		return 0, false
	}
	return o.deadline.Sub(o.clk.Now()), true
}

// Budget bounds a sub-step's wait by the op's remaining budget and an
// optional cap (cap<=0 means the deadline alone governs). ok=false means
// the deadline has already passed and the step must not start. A returned
// wait of 0 with ok=true means "wait without bound" (deadline-less op, no
// cap) — the conventions of transport.Peers.Do.
func (o *Op) Budget(cap time.Duration) (wait time.Duration, ok bool) {
	rem, has := o.Remaining()
	if !has {
		return max(cap, 0), true
	}
	if rem <= 0 {
		return 0, false
	}
	if cap > 0 && cap < rem {
		return cap, true
	}
	return rem, true
}

// WireBudget returns the remaining budget to stamp into an outbound
// message (0 = no deadline). Negative remainders encode as the smallest
// positive budget so a receiver fails fast rather than treating the op as
// unbounded.
func (o *Op) WireBudget() time.Duration {
	rem, has := o.Remaining()
	if !has {
		return 0
	}
	if rem <= 0 {
		return time.Nanosecond
	}
	return rem
}

// ObserveStage records d spent in stage on the op's trail and sink.
func (o *Op) ObserveStage(s Stage, d time.Duration) {
	if d < 0 {
		d = 0
	}
	o.mu.Lock()
	o.trail[s].count++
	o.trail[s].total += d
	o.mu.Unlock()
	if o.sink != nil {
		o.sink.ObserveStage(s.String(), d)
	}
}

// StageTimer is an in-flight stage measurement. It is a value, so timing a
// stage allocates nothing:
//
//	st := op.Stage(opctx.StagePrimarySSD)
//	defer st.Stop()
type StageTimer struct {
	o  *Op
	s  Stage
	t0 time.Time
}

// Stage begins timing s; record with Stop.
func (o *Op) Stage(s Stage) StageTimer {
	return StageTimer{o: o, s: s, t0: o.clk.Now()}
}

// Stop records the stage measurement begun by Stage.
func (t StageTimer) Stop() { t.o.ObserveStage(t.s, t.o.clk.Now().Sub(t.t0)) }

// StageSample is one breadcrumb trail entry.
type StageSample struct {
	Stage Stage
	Count int64
	Total time.Duration
}

// Trail snapshots the op's breadcrumbs in path order, skipping untouched
// stages.
func (o *Op) Trail() []StageSample {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []StageSample
	for i, c := range o.trail {
		if c.count > 0 {
			out = append(out, StageSample{Stage: Stage(i), Count: c.count, Total: c.total})
		}
	}
	return out
}
