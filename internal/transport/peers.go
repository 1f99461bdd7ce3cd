package transport

import (
	"sync"
	"time"

	"ursa/internal/clock"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/util/backoff"
)

// Peers is a cached pool of RPC clients keyed by address, and the only way
// to call: every call is a branch of a flight it begins (Begin, Do).
// Connections are dialed on demand and reused across calls; a call that
// fails with a transport-level fault evicts the cached client so the next
// call redials, while a timeout keeps it (the connection is healthy — the
// budget just ran out; see Flight.take).
type Peers struct {
	dial Dialer
	clk  clock.Clock

	// Dial-retry policy (SetRedial). Zero tries — the default — fails a
	// call on the first dial error, preserving fast data-path failover.
	redial      backoff.Policy
	redialTries int

	mu sync.Mutex
	m  map[string]*Client

	flights flights // the flights Begin recycles
}

// NewPeers returns an empty pool dialing through d.
func NewPeers(d Dialer, clk clock.Clock) *Peers {
	return &Peers{dial: d, clk: clk, m: make(map[string]*Client)}
}

// Get returns the cached client for addr, dialing if absent. A cached client
// whose connection has already died (the peer crashed; its dispatcher saw
// the close) is evicted here and replaced, not handed out to fail one more
// call. Concurrent callers racing on a cold address may both dial; the
// loser's connection is closed.
func (p *Peers) Get(addr string) (*Client, error) {
	p.mu.Lock()
	c := p.m[addr]
	p.mu.Unlock()
	if c != nil {
		if !c.dead() {
			return c, nil
		}
		p.drop(addr, c)
	}
	conn, err := p.dial.Dial(addr)
	if err != nil {
		return nil, err
	}
	nc := newClient(conn)
	p.mu.Lock()
	if cur := p.m[addr]; cur != nil {
		p.mu.Unlock()
		nc.Close()
		return cur, nil
	}
	p.m[addr] = nc
	p.mu.Unlock()
	return nc, nil
}

// drop evicts c from the pool (if still cached under addr) and closes it.
func (p *Peers) drop(addr string, c *Client) {
	p.mu.Lock()
	if p.m[addr] == c {
		delete(p.m, addr)
	}
	p.mu.Unlock()
	c.Close()
}

// SetRedial configures dial-retry: a failed dial is retried up to tries
// more times with the policy's jittered delays (seeded by the op ID),
// never past the op's remaining budget. Callers with slow-changing targets
// (the master redialing a restarting chunkserver) opt in; the default is
// no retries. Set before the pool is shared between goroutines.
func (p *Peers) SetRedial(policy backoff.Policy, tries int) {
	p.redial, p.redialTries = policy, tries
}

// client returns the connection a call on op's behalf to addr goes out on,
// retrying a failed dial per the SetRedial policy.
func (p *Peers) client(op *opctx.Op, addr string) (*Client, error) {
	c, err := p.Get(addr)
	for attempt := 0; err != nil && attempt < p.redialTries; attempt++ {
		d := p.redial.Delay(op.ID(), attempt)
		if rem, hasRem := op.Remaining(); hasRem && rem <= d {
			break // no budget left for another dial
		}
		p.clk.Sleep(d)
		c, err = p.Get(addr)
	}
	return c, err
}

// Do sends m to addr on behalf of op and waits for the response, bounded by
// the op's budget and cap: a flight of one branch. Do consumes one reference
// to m.Payload on every path.
func (p *Peers) Do(op *opctx.Op, addr string, m *proto.Message, cap time.Duration) (*proto.Message, error) {
	fl := p.Begin(op, 1, cap)
	resp, err := fl.Wait(fl.Go(0, addr, m))
	fl.Finish()
	return resp, err
}

// CloseAll closes every cached connection and empties the pool.
func (p *Peers) CloseAll() {
	p.mu.Lock()
	conns := make([]*Client, 0, len(p.m))
	for _, c := range p.m {
		conns = append(conns, c)
	}
	p.m = make(map[string]*Client)
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// cached reports whether addr currently has a pooled client (tests).
func (p *Peers) cached(addr string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m[addr] != nil
}
