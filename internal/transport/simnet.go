package transport

import (
	"fmt"
	"sync"
	"time"

	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/proto"
	"ursa/internal/util"
)

// SimNet is the in-process network fabric: named nodes with per-NIC
// bandwidth shaping, fixed propagation delay, and injectable faults.
// Partitioned links drop messages silently (the protocol's timeouts, not
// the transport, detect them — matching the paper's hybrid fault model,
// §4.1); crashed nodes refuse dials and error all connections.
type SimNet struct {
	clk     clock.Clock
	latency time.Duration

	mu    sync.Mutex
	nodes map[string]*simNode
	cut   map[[2]string]bool
}

type simNode struct {
	addr      string
	accept    chan *simConn
	in, out   *TokenBucket
	down      bool
	conns     map[*simConn]struct{}
	listening bool
	lclosed   chan struct{}
	lcloseOne sync.Once
}

// NewSimNet creates a fabric with the given one-way propagation delay
// (model time).
func NewSimNet(clk clock.Clock, latency time.Duration) *SimNet {
	return &SimNet{
		clk:     clk,
		latency: latency,
		nodes:   make(map[string]*simNode),
		cut:     make(map[[2]string]bool),
	}
}

// NodeConfig sets a node's NIC rates in bytes/second (0 = unlimited).
// SharedIn/SharedOut, when non-nil, override the rates with existing
// buckets so several nodes (the servers of one "machine") contend for one
// physical NIC.
type NodeConfig struct {
	InRate    float64
	OutRate   float64
	SharedIn  *TokenBucket
	SharedOut *TokenBucket
}

func (cfg NodeConfig) buckets(clk clock.Clock) (in, out *TokenBucket) {
	in, out = cfg.SharedIn, cfg.SharedOut
	if in == nil {
		in = NewTokenBucket(clk, cfg.InRate)
	}
	if out == nil {
		out = NewTokenBucket(clk, cfg.OutRate)
	}
	return in, out
}

// Listen returns the listener of the node at addr, creating the node if
// needed. A node created earlier by Dialer (services share their machine's
// identity and NIC) may start listening later, but each address hosts at
// most one active listener.
func (n *SimNet) Listen(addr string, cfg NodeConfig) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	node := n.ensureNodeLocked(addr, cfg)
	if node.listening {
		return nil, fmt.Errorf("simnet: address %q already listening: %w", addr, util.ErrExists)
	}
	node.listening = true
	node.lclosed = make(chan struct{})
	node.lcloseOne = sync.Once{}
	return &simListener{net: n, node: node}, nil
}

// Dialer returns a dialer whose traffic is charged to the named node's NIC.
// The node is created on first use if it never listens.
func (n *SimNet) Dialer(fromAddr string, cfg NodeConfig) Dialer {
	n.mu.Lock()
	defer n.mu.Unlock()
	node := n.ensureNodeLocked(fromAddr, cfg)
	return &simDialer{net: n, node: node}
}

func (n *SimNet) ensureNodeLocked(addr string, cfg NodeConfig) *simNode {
	node, ok := n.nodes[addr]
	if !ok {
		in, out := cfg.buckets(n.clk)
		node = &simNode{
			addr:   addr,
			accept: make(chan *simConn, 128),
			in:     in,
			out:    out,
			conns:  make(map[*simConn]struct{}),
		}
		n.nodes[addr] = node
	}
	return node
}

func cutKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Partition drops all traffic between a and b until Heal.
func (n *SimNet) Partition(a, b string) {
	n.mu.Lock()
	n.cut[cutKey(a, b)] = true
	n.mu.Unlock()
}

// Heal restores the link between a and b.
func (n *SimNet) Heal(a, b string) {
	n.mu.Lock()
	delete(n.cut, cutKey(a, b))
	n.mu.Unlock()
}

// HealAllPartitions restores every cut link (the chaos harness's
// end-of-run sweep).
func (n *SimNet) HealAllPartitions() {
	n.mu.Lock()
	n.cut = make(map[[2]string]bool)
	n.mu.Unlock()
}

// partitioned reports whether traffic a→b is currently dropped.
func (n *SimNet) partitioned(a, b string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cut[cutKey(a, b)]
}

// Crash marks the node down and errors all of its connections.
func (n *SimNet) Crash(addr string) {
	n.mu.Lock()
	node, ok := n.nodes[addr]
	if !ok {
		n.mu.Unlock()
		return
	}
	node.down = true
	conns := make([]*simConn, 0, len(node.conns))
	for c := range node.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Restart brings a crashed node back (listeners resume accepting).
func (n *SimNet) Restart(addr string) {
	n.mu.Lock()
	if node, ok := n.nodes[addr]; ok {
		node.down = false
	}
	n.mu.Unlock()
}

// Down reports whether the node is crashed.
func (n *SimNet) Down(addr string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	node, ok := n.nodes[addr]
	return ok && node.down
}

// timedMsg carries a message and its transmit completion time.
type timedMsg struct {
	m    *proto.Message
	sent time.Time
}

// simPipeDepth bounds the messages one direction of a connection holds: 16×
// the per-connection inflight cap, so outside adversarial tests nothing is
// ever dropped for want of room.
const simPipeDepth = 4096

// simPipe is one direction of a connection: a deep FIFO plus propagation
// delay applied at the receiver, so many messages can be in flight — the
// in-network pipelining the paper leans on (§3.4). A pipe past simPipeDepth
// drops the message like a congested switch would.
//
// The FIFO is a ring that doubles when a burst outgrows it, so a connection
// costs what its deepest backlog needed (nothing while idle), not the bound.
// Everything is under the mutex, which is what keeps a message from being
// committed to a pipe after close has drained it — an undrained message
// would leak its payload lease.
type simPipe struct {
	mu    sync.Mutex
	ready sync.Cond // a message arrived, or the pipe died
	dead  bool
	ring  []timedMsg // len is zero or a power of two
	head  int        // index of the oldest message
	n     int        // messages queued
}

func newSimPipe() *simPipe {
	p := &simPipe{}
	p.ready.L = &p.mu
	return p
}

// send enqueues tm, taking ownership of its payload lease. A closed pipe
// reports ErrConnClosed; a full pipe drops silently. Either way the lease
// is released — the simulated wire is a consumer like any other.
func (p *simPipe) send(tm timedMsg) error {
	p.mu.Lock()
	if dead := p.dead; dead || p.n == simPipeDepth {
		p.mu.Unlock()
		bufpool.Put(tm.m.Payload)
		if dead {
			return ErrConnClosed
		}
		return nil // congestion drop
	}
	if p.n == len(p.ring) {
		// Full (or not yet made): double, oldest message to index 0.
		ring := make([]timedMsg, max(2*len(p.ring), 8))
		k := copy(ring, p.ring[p.head:])
		copy(ring[k:], p.ring[:p.head])
		p.ring, p.head = ring, 0
	}
	p.ring[(p.head+p.n)&(len(p.ring)-1)] = tm
	p.n++
	p.mu.Unlock()
	p.ready.Signal()
	return nil
}

// recv blocks for the oldest queued message; ok is false once the pipe is
// closed.
func (p *simPipe) recv() (tm timedMsg, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.n == 0 && !p.dead {
		p.ready.Wait()
	}
	if p.dead {
		return timedMsg{}, false
	}
	tm, p.ring[p.head] = p.ring[p.head], timedMsg{}
	p.head = (p.head + 1) & (len(p.ring) - 1)
	p.n--
	return tm, true
}

// closed reports whether the pipe has been closed.
func (p *simPipe) closed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dead
}

// close marks the pipe dead and releases every undelivered message's
// payload lease. Idempotent; safe against concurrent send and recv.
func (p *simPipe) close() {
	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		return
	}
	p.dead = true
	ring, head, n := p.ring, p.head, p.n
	p.ring, p.head, p.n = nil, 0, 0
	p.mu.Unlock()
	p.ready.Broadcast()
	for i := 0; i < n; i++ {
		bufpool.Put(ring[(head+i)&(len(ring)-1)].m.Payload)
	}
}

// simConn is one end of a simulated connection.
type simConn struct {
	net        *SimNet
	local      *simNode
	remoteAddr string
	sendPipe   *simPipe // messages we transmit
	recvPipe   *simPipe // messages we receive
	peer       *simConn
}

// Send shapes the message through both NICs and enqueues it, dropping it
// silently when the link is partitioned or the peer is down. Send consumes
// the caller's reference to m.Payload: delivery hands it to the receiver,
// and every drop path releases it (a dropped message's payload would
// otherwise leak its lease).
func (c *simConn) Send(m *proto.Message) error {
	if c.sendPipe.closed() {
		bufpool.Put(m.Payload)
		return ErrConnClosed
	}
	size := m.WireSize()
	c.local.out.Take(size)
	if c.net.partitioned(c.local.addr, c.remoteAddr) || c.net.Down(c.remoteAddr) {
		bufpool.Put(m.Payload)
		return nil // dropped on the wire; timeouts upstairs handle it
	}
	c.net.nodeIn(c.remoteAddr).Take(size)
	return c.sendPipe.send(timedMsg{m: m, sent: c.net.clk.Now()})
}

func (n *SimNet) nodeIn(addr string) *TokenBucket {
	n.mu.Lock()
	defer n.mu.Unlock()
	if node, ok := n.nodes[addr]; ok {
		return node.in
	}
	return nil
}

// Recv delivers the next message after its propagation delay elapses.
func (c *simConn) Recv() (*proto.Message, error) {
	tm, ok := c.recvPipe.recv()
	if !ok {
		return nil, ErrConnClosed
	}
	if wait := c.net.latency - c.net.clk.Now().Sub(tm.sent); wait > 0 {
		c.net.clk.Sleep(wait)
	}
	return tm.m, nil
}

// Close tears down both directions and unregisters from the node.
func (c *simConn) Close() error {
	c.sendPipe.close()
	c.recvPipe.close()
	c.net.mu.Lock()
	delete(c.local.conns, c)
	if c.peer != nil {
		delete(c.peer.local.conns, c.peer)
	}
	c.net.mu.Unlock()
	if c.peer != nil {
		c.peer.sendPipe.close()
		c.peer.recvPipe.close()
	}
	return nil
}

// simListener accepts connections for a node.
type simListener struct {
	net  *SimNet
	node *simNode
}

func (l *simListener) Accept() (MsgConn, error) {
	select {
	case c := <-l.node.accept:
		return c, nil
	case <-l.node.lclosed:
		return nil, ErrConnClosed
	}
}

func (l *simListener) Close() error {
	l.node.lcloseOne.Do(func() {
		// Stop new dials, then tear down connections still waiting in the
		// accept queue so their clients see the closure.
		l.net.mu.Lock()
		l.node.listening = false
		l.net.mu.Unlock()
		close(l.node.lclosed)
		for {
			select {
			case c := <-l.node.accept:
				c.Close()
			default:
				return
			}
		}
	})
	return nil
}

func (l *simListener) Addr() string { return l.node.addr }

// simDialer opens connections from its node.
type simDialer struct {
	net  *SimNet
	node *simNode
}

func (d *simDialer) Dial(addr string) (MsgConn, error) {
	d.net.mu.Lock()
	remote, ok := d.net.nodes[addr]
	if !ok || !remote.listening || remote.down || d.node.down {
		d.net.mu.Unlock()
		return nil, fmt.Errorf("simnet: dial %q: %w", addr, util.ErrPartitioned)
	}
	if d.net.cut[cutKey(d.node.addr, addr)] {
		d.net.mu.Unlock()
		return nil, fmt.Errorf("simnet: dial %q: %w", addr, util.ErrPartitioned)
	}
	a2b, b2a := newSimPipe(), newSimPipe()
	local := &simConn{net: d.net, local: d.node, remoteAddr: addr,
		sendPipe: a2b, recvPipe: b2a}
	peer := &simConn{net: d.net, local: remote, remoteAddr: d.node.addr,
		sendPipe: b2a, recvPipe: a2b}
	local.peer, peer.peer = peer, local
	d.node.conns[local] = struct{}{}
	remote.conns[peer] = struct{}{}
	// Enqueue under the lock so a concurrent listener Close cannot miss
	// this connection between its drain and our enqueue.
	select {
	case remote.accept <- peer:
		d.net.mu.Unlock()
		return local, nil
	default:
		d.net.mu.Unlock()
		local.Close()
		return nil, fmt.Errorf("simnet: dial %q: accept queue full", addr)
	}
}
