package client

import (
	"fmt"
	"sync/atomic"
	"time"

	"ursa/internal/clock"
	"ursa/internal/master"
	"ursa/internal/metrics"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// Config parameterizes a client portal.
type Config struct {
	// Name identifies this client as a lease holder.
	Name string
	// MasterAddrs lists every master endpoint (one entry for a single
	// master). Metadata calls go through a transport.MasterSession, which
	// finds the acting primary after a failover.
	MasterAddrs []string
	// Clock supplies time.
	Clock clock.Clock
	// Dialer reaches the master and chunk servers.
	Dialer transport.Dialer
	// TinyThreshold is Tc: writes at or below it use client-directed
	// replication (§3.2). 0 means the 8 KB paper default.
	TinyThreshold int
	// CallTimeout bounds individual chunk-server RPCs; it is also the
	// commit-rule timeout for client-directed writes. Master calls get 20×
	// CallTimeout: a view change may be repairing replicas behind the call.
	CallTimeout time.Duration
	// IOTimeout is the end-to-end deadline budget of one ReadAt/WriteAt.
	// This is the single place an absolute deadline enters the I/O path:
	// the budget is stamped into every RPC the operation fans out to, and
	// every layer below (transport waits, primary replication fan-out,
	// version queueing) derives its window from what remains of it. 0
	// means (maxRetries+1) × CallTimeout, enough for every retry round to
	// run its course.
	IOTimeout time.Duration
	// Metrics receives per-stage latency breadcrumbs from this client's
	// operations (nil: a registry of its own).
	Metrics *metrics.Registry
}

// maxRetries bounds how many recover-and-retry rounds an I/O, or a version
// probe, makes before failing.
const maxRetries = 6

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
	if c.IOTimeout <= 0 {
		c.IOTimeout = time.Duration(maxRetries+1) * c.CallTimeout
	}
	if c.Name == "" {
		c.Name = "client"
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
}

// Client is the portal process: it owns the master session and chunk-server
// connections, and opens VDisks.
type Client struct {
	cfg    Config
	peers  *transport.Peers // chunk-server connections, shared across vdisks
	master *transport.MasterSession
	closed atomic.Bool
}

// New creates a client portal.
func New(cfg Config) *Client {
	cfg.fillDefaults()
	return &Client{
		cfg:    cfg,
		peers:  transport.NewPeers(cfg.Dialer, cfg.Clock),
		master: transport.NewMasterSession(cfg.Dialer, cfg.Clock, cfg.MasterAddrs, cfg.CallTimeout, cfg.Metrics),
	}
}

// Close tears down all connections. Open VDisks become unusable.
func (c *Client) Close() {
	if c.closed.Swap(true) {
		return
	}
	c.master.Close()
	c.peers.CloseAll()
}

// newOp starts a request context on the client's clock with the given
// deadline budget (<=0 means none), wired to the client's metrics sink. The
// caller releases it when its operation returns.
func (c *Client) newOp(budget time.Duration) *opctx.Op {
	return opctx.New(c.cfg.Clock, budget).WithSink(c.cfg.Metrics)
}

// CreateVDisk asks the master to create a virtual disk.
func (c *Client) CreateVDisk(req master.CreateVDiskReq) (*master.VDiskMeta, error) {
	var meta master.VDiskMeta
	status, err := c.master.Call(nil, proto.MOpCreateVDisk, req, &meta)
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
	status, err := c.master.Call(nil, proto.MOpDeleteVDisk, master.GetVDiskReq{Name: name}, nil)
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
	status, err := c.master.Call(nil, proto.MOpGetVDisk, master.GetVDiskReq{Name: name}, &meta)
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
	sent := c.cfg.Clock.Now()
	status, err := c.master.Call(nil, proto.MOpOpenVDisk,
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
	vd := newVDisk(c, meta, sent.Add(meta.LeaseTTL))
	// Confirm version numbers with the replicas before first use
	// (initialization, §4.2.1). It is maintenance, not a client I/O: no
	// deadline; each probe flight is still bounded by CallTimeout.
	op := c.newOp(0)
	err = vd.confirmChunks(op)
	op.Release()
	if err != nil {
		vd.Close()
		return nil, err
	}
	vd.startRenewer()
	return vd, nil
}
