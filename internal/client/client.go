package client

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/master"
	"ursa/internal/metrics"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/transport"
	"ursa/internal/util"
	"ursa/internal/util/backoff"
)

// Config parameterizes a client portal.
type Config struct {
	// Name identifies this client as a lease holder.
	Name string
	// MasterAddr locates the master service.
	MasterAddr string
	// MasterAddrs lists every master endpoint when the metadata service is
	// replicated. Metadata calls rotate through the list on transport
	// faults and follow StatusNotPrimary redirect hints, so the client
	// finds the promoted primary after a failover. Empty means the single
	// MasterAddr.
	MasterAddrs []string
	// Clock supplies time.
	Clock clock.Clock
	// Dialer reaches the master and chunk servers.
	Dialer transport.Dialer
	// TinyThreshold is Tc: writes at or below it use client-directed
	// replication (§3.2). 0 means the 8 KB paper default.
	TinyThreshold int
	// CallTimeout bounds individual chunk-server RPCs; it is also the
	// commit-rule timeout for client-directed writes.
	CallTimeout time.Duration
	// MasterTimeout bounds master RPCs (metadata, leases, failure
	// reports). The master path tolerates far more latency than the data
	// path — a view change may be repairing replicas behind the call — so
	// it gets its own budget instead of borrowing CallTimeout. 0 means
	// 20× CallTimeout.
	MasterTimeout time.Duration
	// IOTimeout is the end-to-end deadline budget of one ReadAt/WriteAt.
	// This is the single place an absolute deadline enters the I/O path:
	// the budget is stamped into every RPC the operation fans out to, and
	// every layer below (transport waits, primary replication fan-out,
	// version queueing) derives its window from what remains of it. 0
	// means (MaxRetries+1) × CallTimeout, enough for every retry round to
	// run its course.
	IOTimeout time.Duration
	// MaxRetries bounds how many recover-and-retry rounds an I/O attempts
	// before failing.
	MaxRetries int
	// ReportCooldown bounds how often the client re-files the same
	// asynchronous (chunk, address) failure report: straggler reports from
	// the client-directed majority-ack path are fire-and-forget, and
	// without the cooldown a flapping replica spawns one report per failed
	// write. 0 means 1s.
	ReportCooldown time.Duration
	// Metrics, when non-nil, receives per-stage latency breadcrumbs from
	// this client's operations.
	Metrics *metrics.Registry
}

func (c *Config) fillDefaults() {
	if c.Clock == nil {
		c.Clock = clock.Realtime
	}
	if c.TinyThreshold <= 0 {
		c.TinyThreshold = 8 * util.KiB
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 500 * time.Millisecond
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 6
	}
	if c.MasterTimeout <= 0 {
		c.MasterTimeout = 20 * c.CallTimeout
	}
	if c.IOTimeout <= 0 {
		c.IOTimeout = time.Duration(c.MaxRetries+1) * c.CallTimeout
	}
	if c.ReportCooldown <= 0 {
		c.ReportCooldown = time.Second
	}
	if c.Name == "" {
		c.Name = "client"
	}
	if len(c.MasterAddrs) == 0 {
		c.MasterAddrs = []string{c.MasterAddr}
	} else if c.MasterAddr == "" {
		c.MasterAddr = c.MasterAddrs[0]
	}
}

// MetricFailureReportsDropped counts asynchronous failure reports dropped
// because the bounded report queue was full — the overload shedding that
// replaces an unbounded herd of goroutines parked on a dead master.
const MetricFailureReportsDropped = "client-failure-reports-dropped"

// reportQueueDepth bounds how many asynchronous failure reports may wait
// behind the single reporter goroutine. During a master blackout the queue
// fills and further reports are dropped (counted, and re-filed by the next
// failed I/O after the cooldown) instead of parking goroutines in Do.
const reportQueueDepth = 32

// asyncReport is one queued fire-and-forget failure report.
type asyncReport struct {
	vd   *VDisk
	idx  int
	addr string
}

// Client is the portal process: it owns the master session and chunk-server
// connections, and opens VDisks.
type Client struct {
	cfg     Config
	peers   *transport.Peers // chunk-server connections, shared across vdisks
	masters *transport.Peers // master connections, one per endpoint

	reportCh   chan asyncReport // bounded queue behind the reporter goroutine
	reportStop chan struct{}
	reportWG   sync.WaitGroup

	mu         sync.Mutex
	masterHint string // one-shot redirect target from the last StatusNotPrimary
	masterIdx  int    // rotation cursor into cfg.MasterAddrs
	closed     bool
}

// New creates a client portal.
func New(cfg Config) *Client {
	cfg.fillDefaults()
	c := &Client{
		cfg:        cfg,
		peers:      transport.NewPeers(cfg.Dialer, cfg.Clock),
		masters:    transport.NewPeers(cfg.Dialer, cfg.Clock),
		reportCh:   make(chan asyncReport, reportQueueDepth),
		reportStop: make(chan struct{}),
	}
	c.reportWG.Add(1)
	go c.reportLoop()
	return c
}

// Close tears down all connections. Open VDisks become unusable.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.reportStop)
	c.reportWG.Wait()
	c.masters.CloseAll()
	c.peers.CloseAll()
}

func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// reportLoop drains the asynchronous failure-report queue, one report at a
// time. A single goroutine serializes the client's fire-and-forget reports:
// when the master is unreachable the reports queue (and overflow is dropped
// at the enqueue side) instead of fanning out goroutines that all park in
// the master call for MasterTimeout.
func (c *Client) reportLoop() {
	defer c.reportWG.Done()
	for {
		select {
		case <-c.reportStop:
			return
		case r := <-c.reportCh:
			_ = r.vd.reportFailure(nil, r.idx, r.addr)
			r.vd.finishAsyncReport(r.idx)
		}
	}
}

// nextMasterAddr picks the endpoint for the next metadata attempt: a
// redirect hint if one is pending (consumed once), else the rotation
// cursor.
func (c *Client) nextMasterAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.masterHint != "" {
		addr := c.masterHint
		c.masterHint = ""
		return addr
	}
	return c.cfg.MasterAddrs[c.masterIdx%len(c.cfg.MasterAddrs)]
}

// rotateMaster advances the rotation cursor past addr after a failed
// attempt (no-op if another caller already moved on).
func (c *Client) rotateMaster(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cfg.MasterAddrs[c.masterIdx%len(c.cfg.MasterAddrs)] == addr {
		c.masterIdx++
	}
}

// markMaster pins the rotation cursor on the endpoint that just served a
// call, so subsequent metadata ops go straight there.
func (c *Client) markMaster(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, a := range c.cfg.MasterAddrs {
		if a == addr {
			c.masterIdx = i
			return
		}
	}
}

// setMasterHint records a one-shot redirect target.
func (c *Client) setMasterHint(addr string) {
	c.mu.Lock()
	c.masterHint = addr
	c.mu.Unlock()
}

// newOp starts a request context on the client's clock with the given
// deadline budget (<=0 means none), wired to the client's metrics sink. The
// caller releases it when its operation returns.
func (c *Client) newOp(budget time.Duration) *opctx.Op {
	op := opctx.New(c.cfg.Clock, budget)
	if c.cfg.Metrics != nil {
		op = op.WithSink(c.cfg.Metrics)
	}
	return op
}

// masterCall performs one JSON-payload master RPC under its own
// MasterTimeout-budgeted op.
func (c *Client) masterCall(op proto.Op, req any, out any) (proto.Status, error) {
	return c.masterCallT(c.cfg.MasterTimeout, op, req, out)
}

// masterCallT is masterCall with an explicit deadline budget, for callers
// sitting on a tighter clock than MasterTimeout.
//
// With one configured master endpoint this is a single attempt, exactly the
// unreplicated behavior. With several, the call hunts for the primary until
// the budget runs out: transport faults rotate to the next endpoint,
// StatusNotPrimary follows the standby's redirect hint (or rotates when the
// standby doesn't know a primary yet), and attempts are spaced by the
// shared backoff policy so a herd of callers riding out a failover doesn't
// hammer the standbys in lockstep.
func (c *Client) masterCallT(d time.Duration, op proto.Op, req any, out any) (proto.Status, error) {
	var payload []byte
	if req != nil {
		var err error
		payload, err = json.Marshal(req)
		if err != nil {
			return proto.StatusError, err
		}
	}
	mop := c.newOp(d)
	defer mop.Release()
	policy := backoff.Policy{Base: c.cfg.CallTimeout / 50, Cap: c.cfg.CallTimeout / 5}
	multi := len(c.cfg.MasterAddrs) > 1
	var lastErr error
	var deadAddr string // last endpoint that failed at the transport
	for attempt := 0; ; attempt++ {
		if c.isClosed() {
			return proto.StatusError, util.ErrClosed
		}
		addr := c.nextMasterAddr()
		// Re-sending payload across attempts is safe: JSON buffers are
		// foreign to bufpool, so Do's per-attempt Put is a no-op.
		resp, err := c.masters.Do(mop, addr, &proto.Message{Op: op, Payload: payload}, 0)
		switch {
		case err != nil:
			lastErr = err
			deadAddr = addr
			c.rotateMaster(addr)
		case resp.Status == proto.StatusNotPrimary:
			var info master.MasterInfoResp
			hintErr := json.Unmarshal(resp.Payload, &info)
			bufpool.Put(resp.Payload)
			lastErr = fmt.Errorf("client: master %s: %w", addr, util.ErrNotPrimary)
			// A standby that hasn't noticed the failover yet still points
			// at the dead primary — following that hint just burns an
			// attempt, so rotate past it instead.
			if hintErr == nil && info.Primary != "" && info.Primary != addr && info.Primary != deadAddr {
				c.setMasterHint(info.Primary)
			} else {
				c.rotateMaster(addr)
			}
		default:
			status := resp.Status
			if status == proto.StatusOK && out != nil && len(resp.Payload) > 0 {
				if err := json.Unmarshal(resp.Payload, out); err != nil {
					bufpool.Put(resp.Payload)
					return proto.StatusError, err
				}
			}
			bufpool.Put(resp.Payload)
			c.markMaster(addr)
			return status, nil
		}
		if !multi {
			break
		}
		// Sweep the whole endpoint list back to back, then back off once
		// per sweep: during a failover every endpoint is worth one fast
		// look, and it's the sweeps — not the individual attempts — that
		// would otherwise hammer the standbys in lockstep.
		if sweep := len(c.cfg.MasterAddrs); (attempt+1)%sweep == 0 {
			delay := policy.Delay(mop.ID(), (attempt+1)/sweep-1)
			if rem, ok := mop.Remaining(); !ok || rem <= delay {
				break
			}
			c.cfg.Clock.Sleep(delay)
		} else if rem, ok := mop.Remaining(); !ok || rem <= 0 {
			break
		}
	}
	return proto.StatusError, lastErr
}

// CreateVDisk asks the master to create a virtual disk.
func (c *Client) CreateVDisk(req master.CreateVDiskReq) (*master.VDiskMeta, error) {
	var meta master.VDiskMeta
	status, err := c.masterCall(proto.MOpCreateVDisk, req, &meta)
	if err != nil {
		return nil, err
	}
	switch status {
	case proto.StatusOK:
		return &meta, nil
	case proto.StatusExists:
		return nil, fmt.Errorf("client: vdisk %q: %w", req.Name, util.ErrExists)
	case proto.StatusQuota:
		return nil, fmt.Errorf("client: vdisk %q: %w", req.Name, util.ErrQuota)
	default:
		return nil, fmt.Errorf("client: create vdisk %q: %s", req.Name, status)
	}
}

// DeleteVDisk removes a virtual disk.
func (c *Client) DeleteVDisk(name string) error {
	status, err := c.masterCall(proto.MOpDeleteVDisk, master.GetVDiskReq{Name: name}, nil)
	if err != nil {
		return err
	}
	if status == proto.StatusNotFound {
		return fmt.Errorf("client: vdisk %q: %w", name, util.ErrNotFound)
	}
	if status != proto.StatusOK {
		return fmt.Errorf("client: delete vdisk %q: %s", name, status)
	}
	return nil
}

// OpenMeta fetches a vdisk's current metadata without acquiring its lease
// (monitoring and tooling path).
func (c *Client) OpenMeta(name string) (master.VDiskMeta, error) {
	var meta master.VDiskMeta
	status, err := c.masterCall(proto.MOpGetVDisk, master.GetVDiskReq{Name: name}, &meta)
	if err != nil {
		return meta, err
	}
	switch status {
	case proto.StatusOK:
		return meta, nil
	case proto.StatusNotFound:
		return meta, fmt.Errorf("client: vdisk %q: %w", name, util.ErrNotFound)
	default:
		return meta, fmt.Errorf("client: get vdisk %q: %s", name, status)
	}
}

// Open acquires the vdisk lease and returns a usable VDisk. The lease is
// auto-renewed until Close (§4.1).
func (c *Client) Open(name string) (*VDisk, error) {
	var meta master.VDiskMeta
	status, err := c.masterCall(proto.MOpOpenVDisk,
		master.OpenVDiskReq{Name: name, Client: c.cfg.Name}, &meta)
	if err != nil {
		return nil, err
	}
	switch status {
	case proto.StatusOK:
	case proto.StatusLeaseHeld:
		return nil, fmt.Errorf("client: open %q: %w", name, util.ErrLeaseHeld)
	case proto.StatusNotFound:
		return nil, fmt.Errorf("client: open %q: %w", name, util.ErrNotFound)
	default:
		return nil, fmt.Errorf("client: open %q: %s", name, status)
	}
	vd := newVDisk(c, meta)
	// Confirm version numbers with the replicas before first use
	// (initialization, §4.2.1). It is maintenance, not a client I/O: no
	// deadline; each probe flight is still bounded by CallTimeout.
	op := c.newOp(0)
	err = vd.confirmChunks(op, nil)
	op.Release()
	if err != nil {
		vd.Close()
		return nil, err
	}
	vd.startRenewer()
	return vd, nil
}
