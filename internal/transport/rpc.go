package transport

import (
	"sync"

	"ursa/internal/bufpool"
	"ursa/internal/proto"
)

// Client is one pooled connection of a Peers: many calls may be in flight on
// it simultaneously (the paper's in-network pipelining, §3.4), and responses
// are matched by message ID to the flight slot that awaits them, so servers
// may complete them out of order. Calls go out only as branches of a flight
// (Peers.Begin, Peers.Do).
type Client struct {
	conn MsgConn

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]callRef
	closed  bool
	done    chan struct{}
}

// callRef is where a response completes: one branch slot of a flight.
type callRef struct {
	fl   *Flight
	slot int
}

// newClient starts the response dispatcher over conn.
func newClient(conn MsgConn) *Client {
	c := &Client{
		conn:    conn,
		pending: make(map[uint64]callRef),
		done:    make(chan struct{}),
	}
	go c.recvLoop()
	return c
}

// recvLoop is the dispatcher: it claims a response's pending entry and
// completes the slot it names. Nothing else completes a registered call
// (failAll is its exit path).
func (c *Client) recvLoop() {
	defer close(c.done)
	for {
		m, err := c.conn.Recv()
		if err != nil {
			c.failAll()
			return
		}
		c.mu.Lock()
		ref, ok := c.pending[m.ID]
		if ok {
			delete(c.pending, m.ID)
		}
		c.mu.Unlock()
		if ok {
			ref.fl.complete(ref.slot, m)
		} else {
			// Unknown ID: a late response to a call its flight has forgotten
			// (window expired, early Finish).
			discard(m)
		}
	}
}

// failAll claims every pending call at once and completes each as failed.
func (c *Client) failAll() {
	c.mu.Lock()
	c.closed = true
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()
	for _, ref := range pending {
		ref.fl.complete(ref.slot, nil)
	}
}

// register assigns m its ID and enters the slot that awaits the response.
// It reports false on a closed client.
func (c *Client) register(m *proto.Message, ref callRef) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.nextID++
		m.ID = c.nextID
		c.pending[m.ID] = ref
	}
	return !c.closed
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

// dead reports whether the dispatcher has exited: the connection is gone and
// every call on this client would fail unsent.
func (c *Client) dead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// pendingCalls reports the number of in-flight calls (tests).
func (c *Client) pendingCalls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
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
	l     Listener
	h     Handler
	qsink QueueSink

	mu     sync.Mutex
	conns  map[MsgConn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// maxInflightPerConn bounds concurrent handlers per connection, the moral
// equivalent of a device queue depth; beyond it requests queue in the read
// loop.
const maxInflightPerConn = 256

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

// WithQueueMetrics publishes the per-connection admission depth to sink as
// MetricConnInflight value samples.
func WithQueueMetrics(sink QueueSink) ServeOption {
	return func(s *Server) { s.qsink = sink }
}

// Serve starts accepting. It returns immediately; Close stops everything.
func Serve(l Listener, h Handler, opts ...ServeOption) *Server {
	s := &Server{l: l, h: h, conns: make(map[MsgConn]struct{})}
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
	sem := make(chan struct{}, maxInflightPerConn)
	// Parked handler workers, each identified by its inbox. Handler chains
	// run deep (rpc -> chunkserver -> blockstore/journal), so a fresh
	// goroutine per message pays runtime.newstack/copystack to re-grow the
	// same stack every request — ~20% of all CPU at the zero-latency IOPS
	// ceiling. Reusing workers keeps stacks grown. Invariant: a worker
	// parks (pushes its inbox) BEFORE inner.Done(), so once inner.Wait()
	// returns every surviving worker is reachable through idle.
	idle := make(chan chan *proto.Message, maxInflightPerConn)
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
