package transport

import (
	"fmt"
	"sync"
	"time"

	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/util"
)

// Client is a pipelined RPC endpoint over one MsgConn: many calls may be in
// flight simultaneously (the paper's in-network pipelining, §3.4), and
// responses are matched to callers by message ID, so servers may complete
// them out of order.
type Client struct {
	conn MsgConn
	clk  clock.Clock

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan *proto.Message
	closed  bool
	done    chan struct{}
}

// NewClient starts the response dispatcher over conn.
func NewClient(conn MsgConn, clk clock.Clock) *Client {
	c := &Client{
		conn:    conn,
		clk:     clk,
		pending: make(map[uint64]chan *proto.Message),
		done:    make(chan struct{}),
	}
	go c.recvLoop()
	return c
}

func (c *Client) recvLoop() {
	defer close(c.done)
	for {
		m, err := c.conn.Recv()
		if err != nil {
			c.failAll()
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[m.ID]
		if ok {
			delete(c.pending, m.ID)
		}
		c.mu.Unlock()
		if ok {
			ch <- m // buffered; never blocks
		} else {
			// Unknown ID: a late response to a timed-out or abandoned call.
			// The message dies here, so its payload lease dies with it and
			// the frame goes back to the message pool.
			bufpool.Put(m.Payload)
			proto.Recycle(m)
		}
	}
}

func (c *Client) failAll() {
	c.mu.Lock()
	c.closed = true
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
	c.mu.Unlock()
}

// Go sends m and returns a channel that yields the response, or is closed
// on connection failure. The caller owns timeout policy.
func (c *Client) Go(m *proto.Message) <-chan *proto.Message {
	return c.Start(m).ch
}

// PendingCall is one in-flight request started with Start. Exactly one of
// Done-receive or Abandon must consume it: Abandon releases the response's
// payload lease no matter how the race with the dispatcher falls, which is
// what lets pipelined callers (chunk clones) bail out mid-stream without
// leaking pooled buffers.
type PendingCall struct {
	c  *Client
	id uint64
	ch chan *proto.Message
}

// pcPool recycles PendingCalls and their reply channels between calls —
// one struct + one buffered channel per RPC otherwise. Only Do recycles
// (its PendingCall never escapes); Start/Go callers own theirs. A
// PendingCall is recyclable only while its channel is open and empty:
// after a successful receive, or after an Abandon that either beat the
// dispatcher or drained a real response. Closed channels (connection
// failure) are never pooled.
var pcPool = sync.Pool{New: func() any {
	return &PendingCall{ch: make(chan *proto.Message, 1)}
}}

// Start sends m and returns the in-flight call. The response channel is
// closed on connection failure. Start consumes one reference to m.Payload
// on every path — normally through Send, directly when the client is
// already closed — so callers can treat "handed to Start/Go/Do" as
// "released" unconditionally.
func (c *Client) Start(m *proto.Message) *PendingCall {
	pc := pcPool.Get().(*PendingCall)
	pc.c = c
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		bufpool.Put(m.Payload)
		close(pc.ch)
		return pc
	}
	c.nextID++
	m.ID = c.nextID
	pc.id = m.ID
	c.pending[m.ID] = pc.ch
	c.mu.Unlock()

	if err := c.conn.Send(m); err != nil {
		c.mu.Lock()
		if _, ok := c.pending[pc.id]; ok {
			delete(c.pending, pc.id)
			close(pc.ch)
		}
		c.mu.Unlock()
	}
	return pc
}

// Done yields the response, or is closed on connection failure.
func (pc *PendingCall) Done() <-chan *proto.Message { return pc.ch }

// Abandon gives up on the call. If the dispatcher already claimed it, the
// (delivered or imminent) response is drained and its payload released;
// otherwise the pending entry is removed and the dispatcher will release
// the late response when it arrives.
func (pc *PendingCall) Abandon() { pc.abandon() }

// abandon does Abandon's work and reports whether the channel is still
// open and empty — i.e. whether pc may be recycled.
func (pc *PendingCall) abandon() bool {
	if pc.c.forget(pc.id) {
		return true // no send ever happens; channel open and empty
	}
	// The dispatcher removed the entry before we could: its channel send
	// is complete or imminent (or the channel is closed). Never blocks
	// long.
	if resp, ok := <-pc.ch; ok {
		if resp != nil {
			bufpool.Put(resp.Payload)
			proto.Recycle(resp)
		}
		return true // drained; channel open and empty again
	}
	return false // closed by connection failure; not reusable
}

// Do sends m on behalf of op and waits for the response, bounded by the
// op's remaining deadline budget and the optional per-call cap (cap<=0
// means the deadline alone governs the wait). The op's identity and
// remaining budget are stamped into the message so the receiver can derive
// its own sub-budgets — the deadline decrement rule. Cancelling the op
// unblocks the wait promptly; in either early-exit case the pending entry
// is removed, so a late response is dropped by the dispatcher instead of
// leaking.
// Like Start, Do consumes one reference to m.Payload on every path,
// including the pre-send early returns.
func (c *Client) Do(op *opctx.Op, m *proto.Message, cap time.Duration) (*proto.Message, error) {
	// Capture the op code up front: once Start hands m to the server (the
	// simulated network passes pointers), the server side may recycle it,
	// so the error paths below must not read through m.
	opc := m.Op
	if err := op.Err(); err != nil {
		bufpool.Put(m.Payload)
		return nil, fmt.Errorf("rpc call op=%d: %w", opc, err)
	}
	wait, ok := op.Budget(cap)
	if !ok {
		bufpool.Put(m.Payload)
		return nil, fmt.Errorf("rpc call op=%d: budget spent: %w", opc, util.ErrTimeout)
	}
	m.OpID = op.ID()
	m.Budget = op.WireBudget()

	st := op.Stage(opctx.StageNet)
	pc := c.Start(m)
	// Do's PendingCall never escapes, so safe completions recycle it instead
	// of allocating per call; the wait's timer is pooled likewise.
	var timerC <-chan time.Time
	if wait > 0 {
		timer := clock.StartTimer(c.clk, wait)
		defer clock.StopTimer(timer)
		timerC = timer.C
	}
	select {
	case resp, respOK := <-pc.ch:
		st.Stop()
		if !respOK {
			return nil, fmt.Errorf("rpc call op=%d: %w", opc, ErrConnClosed)
		}
		pcPool.Put(pc)
		return resp, nil
	case <-timerC:
		st.Stop()
		if pc.abandon() {
			pcPool.Put(pc)
		}
		return nil, fmt.Errorf("rpc call op=%d after %v: %w", opc, wait, util.ErrTimeout)
	case <-op.Done():
		st.Stop()
		if pc.abandon() {
			pcPool.Put(pc)
		}
		return nil, fmt.Errorf("rpc call op=%d: %w", opc, op.Err())
	}
}

// forget abandons an in-flight call so the dispatcher drops (and releases)
// its late response instead of delivering it. It reports whether the entry
// was still pending; false means the dispatcher already claimed it.
func (c *Client) forget(id uint64) bool {
	c.mu.Lock()
	_, ok := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	return ok
}

// pendingCalls reports the number of in-flight calls (tests).
func (c *Client) pendingCalls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Call sends m and waits up to timeout for the response. A zero timeout
// waits indefinitely (until connection failure). It is Do with a
// single-purpose op: callers that hold a real request context should pass
// it to Do instead so the whole operation shares one deadline.
func (c *Client) Call(m *proto.Message, timeout time.Duration) (*proto.Message, error) {
	op := opctx.New(c.clk, timeout)
	defer op.Release()
	return c.Do(op, m, 0)
}

// Close tears down the connection; in-flight calls fail.
func (c *Client) Close() {
	c.conn.Close()
	<-c.done
}

// Handler processes one request and returns the response. Handlers are
// invoked concurrently — out-of-order execution is the transport default;
// per-chunk ordering is the chunk server's job (§3.4).
type Handler func(m *proto.Message) *proto.Message

// Server accepts connections on a listener and dispatches requests.
type Server struct {
	l Listener
	h Handler

	maxInflight int
	qsink       QueueSink

	mu     sync.Mutex
	conns  map[MsgConn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// DefaultMaxInflightPerConn bounds concurrent handlers per connection, the
// moral equivalent of a device queue depth; beyond it requests queue in the
// read loop. Override per server with WithMaxInflight.
const DefaultMaxInflightPerConn = 256

// QueueSink receives the server's admission queue-depth samples.
// *metrics.Registry implements it; the indirection keeps transport free of
// dependencies above clock/proto/util.
type QueueSink interface {
	ObserveValue(name string, x int64)
}

// MetricConnInflight is the queue-depth sample WithQueueMetrics publishes:
// concurrent handlers on one connection, observed at each admission.
const MetricConnInflight = "rpc-conn-inflight"

// ServeOption tunes a Server.
type ServeOption func(*Server)

// WithMaxInflight overrides the per-connection concurrent-handler bound
// (n<=0 keeps the default), the server-side admission knob the bench sweeps
// against the chunk pipeline.
func WithMaxInflight(n int) ServeOption {
	return func(s *Server) {
		if n > 0 {
			s.maxInflight = n
		}
	}
}

// WithQueueMetrics publishes the per-connection admission depth to sink as
// MetricConnInflight value samples.
func WithQueueMetrics(sink QueueSink) ServeOption {
	return func(s *Server) { s.qsink = sink }
}

// Serve starts accepting. It returns immediately; Close stops everything.
func Serve(l Listener, h Handler, opts ...ServeOption) *Server {
	s := &Server{
		l: l, h: h,
		maxInflight: DefaultMaxInflightPerConn,
		conns:       make(map[MsgConn]struct{}),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.l.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.connLoop(conn)
	}
}

func (s *Server) connLoop(conn MsgConn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	sem := make(chan struct{}, s.maxInflight)
	// Parked handler workers, each identified by its inbox. Handler chains
	// run deep (rpc -> chunkserver -> blockstore/journal), so a fresh
	// goroutine per message pays runtime.newstack/copystack to re-grow the
	// same stack every request — ~20% of all CPU at the zero-latency IOPS
	// ceiling. Reusing workers keeps stacks grown. Invariant: a worker
	// parks (pushes its inbox) BEFORE inner.Done(), so once inner.Wait()
	// returns every surviving worker is reachable through idle.
	idle := make(chan chan *proto.Message, s.maxInflight)
	var inner sync.WaitGroup
	worker := func(inbox chan *proto.Message, m *proto.Message) {
		for {
			s.serveOne(conn, m)
			<-sem
			select {
			case idle <- inbox:
			default: // enough idlers parked; retire
				inner.Done()
				return
			}
			inner.Done()
			var ok bool
			if m, ok = <-inbox; !ok {
				return
			}
			// Dispatcher did inner.Add(1) before handing us m.
		}
	}
	for {
		m, err := conn.Recv()
		if err != nil {
			break
		}
		sem <- struct{}{}
		if s.qsink != nil {
			s.qsink.ObserveValue(MetricConnInflight, int64(len(sem)))
		}
		inner.Add(1)
		select {
		case w := <-idle:
			w <- m
		default:
			go worker(make(chan *proto.Message), m)
		}
	}
	inner.Wait()
	// All requests are done; release parked workers.
	for {
		select {
		case w := <-idle:
			close(w)
		default:
			return
		}
	}
}

// serveOne runs the handler for one request and settles the request
// payload's lease.
func (s *Server) serveOne(conn MsgConn, m *proto.Message) {
	if resp := s.h(m); resp != nil {
		_ = conn.Send(resp) // conn teardown surfaces at Recv
	}
	// The server owns the request's payload lease (TCP decode
	// leases from bufpool; in-process payloads are foreign no-ops).
	// A handler that extends the payload's lifetime past its return
	// — a replication fan-out, an aliased response — must Retain.
	// The request frame itself is recycled here too: handlers must not
	// retain m past their return (the replication fan-out copies the
	// header fields it needs before dispatching stragglers).
	bufpool.Put(m.Payload)
	proto.Recycle(m)
}

// Addr returns the listener address.
func (s *Server) Addr() string { return s.l.Addr() }

// Close stops the server and closes all connections.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]MsgConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.l.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}
