// Package core is URSA's public façade: it assembles a complete block
// store — machines with simulated SSDs and HDDs, primary and backup chunk
// servers, per-HDD journals, a master, and a simulated network fabric —
// and hands out client portals. This is the system the paper's evaluation
// runs: the same cluster can be built in SSD-HDD-hybrid, SSD-only
// (Ursa-SSD), or HDD-only mode (§6).
package core

import (
	"fmt"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/chunkserver"
	"ursa/internal/client"
	"ursa/internal/clock"
	"ursa/internal/journal"
	"ursa/internal/master"
	"ursa/internal/metrics"
	"ursa/internal/objstore"
	"ursa/internal/scrub"
	"ursa/internal/simdisk"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// Mode selects where replicas live (§6: the three tested replication
// modes).
type Mode int

// Replication modes.
const (
	// Hybrid stores primaries on SSD and backups on HDD behind journals —
	// the paper's contribution.
	Hybrid Mode = iota
	// SSDOnly stores all replicas on SSDs (Ursa-SSD).
	SSDOnly
	// HDDOnly stores all replicas on HDDs without journals.
	HDDOnly
)

func (m Mode) String() string {
	switch m {
	case Hybrid:
		return "hybrid"
	case SSDOnly:
		return "ssd-only"
	default:
		return "hdd-only"
	}
}

// Options parameterizes a cluster.
type Options struct {
	// Machines is the number of storage machines.
	Machines int
	// SSDsPerMachine / HDDsPerMachine set per-machine device counts
	// (paper hardware: 2 PCIe SSDs, 8 HDDs).
	SSDsPerMachine int
	HDDsPerMachine int
	// Mode selects the replication mode.
	Mode Mode
	// Clock drives all simulated time: clock.Realtime, which a run inside
	// clock.Run makes virtual.
	Clock clock.Clock
	// NetLatency is the one-way propagation delay.
	NetLatency time.Duration
	// NICRate is each machine's NIC bandwidth in bytes/second per
	// direction (10 GbE ≈ 1.25e9). 0 = unlimited.
	NICRate float64
	// Replication is replicas per chunk (default 3).
	Replication int
	// SSDModel / HDDModel override device models (zero value = defaults).
	SSDModel simdisk.SSDModel
	HDDModel simdisk.HDDModel
	// JournalFraction is the SSD share reserved for journals (paper: 1/10).
	JournalFraction float64
	// HDDJournal enables the overflow journal at each HDD's tail (§3.2):
	// the last 1/hddJournalShare of the device.
	HDDJournal bool
	// ReplTimeout / CallTimeout are the protocol timeouts.
	ReplTimeout time.Duration
	CallTimeout time.Duration
	// IOTimeout is the client's end-to-end budget per ReadAt/WriteAt (0 =
	// the client default derived from CallTimeout and its retry count).
	IOTimeout time.Duration
	// Masters is the number of master replicas (default 1: a set of one,
	// whose primary logs every commit and ships to nobody). With more, the
	// primary ships its op log to hot standbys and a standby promotes itself
	// — bumping the fencing epoch — when the primary dies.
	Masters int
	// MasterPrimacyTTL is the replicated masters' primacy lease (0 = the
	// master default). Failover blackout scales with it.
	MasterPrimacyTTL time.Duration
	// BypassThreshold is Tj (default 64 KB); TinyThreshold is Tc (8 KB).
	BypassThreshold int
	TinyThreshold   int
	// Scrub, when set, starts one background scrubber per machine, sweeping
	// all of the machine's chunk servers for silent corruption, tuned by the
	// config (zero fields = scrub.DefaultConfig's; a nil Metrics field
	// inherits the cluster registry).
	Scrub *scrub.Config
	// ObjstoreModel overrides the simulated object store's latency and
	// bandwidth model (nil = objstore.DefaultModel; point at
	// objstore.TestModel() for the near-free protocol-test shape).
	ObjstoreModel *objstore.Model
}

func (o *Options) fillDefaults() {
	if o.Machines <= 0 {
		o.Machines = 4
	}
	if o.SSDsPerMachine <= 0 {
		o.SSDsPerMachine = 2
	}
	if o.HDDsPerMachine <= 0 {
		o.HDDsPerMachine = 8
	}
	if o.Clock == nil {
		o.Clock = clock.Realtime
	}
	if o.Replication <= 0 {
		o.Replication = 3
	}
	if o.SSDModel.Capacity == 0 {
		o.SSDModel = simdisk.DefaultSSD()
	}
	if o.HDDModel.Capacity == 0 {
		o.HDDModel = simdisk.DefaultHDD()
	}
	if o.JournalFraction <= 0 {
		o.JournalFraction = 0.1
	}
	if o.ReplTimeout <= 0 {
		o.ReplTimeout = 500 * time.Millisecond
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 2 * time.Second
	}
	if o.Masters <= 0 {
		o.Masters = 1
	}
}

// Machine is one storage machine: devices, servers, and a shared NIC.
// Every device sits behind a FaultInjector (a pass-through until armed);
// SSDs/HDDs keep the raw models, SSDFaults/HDDFaults are what the stores
// and journals actually run on — chaos tests arm faults there.
type Machine struct {
	Name      string
	SSDs      []*simdisk.SSD
	HDDs      []*simdisk.HDD
	SSDFaults []*simdisk.FaultInjector
	HDDFaults []*simdisk.FaultInjector
	// JournalRegions locates every journal region on this machine's
	// devices, so a fault can target one journal (its byte range on the
	// shared SSD) instead of the whole device.
	JournalRegions []JournalRegion
	Servers        []*chunkserver.Server
	// Scrubber is the machine's background integrity sweep (nil unless
	// Options.Scrub).
	Scrubber *scrub.Scrubber
	jsets    []*journal.Set

	nicIn, nicOut *transport.TokenBucket
}

// JournalRegion names one journal's byte region on a machine device.
type JournalRegion struct {
	Server string // owning backup server address
	Name   string // journal name as registered with the set
	Disk   *simdisk.FaultInjector
	Base   int64
	Size   int64
	HDD    bool // overflow journal on the backup HDD itself
}

// JournalSets returns the machine's backup journal sets (hybrid mode).
func (m *Machine) JournalSets() []*journal.Set { return m.jsets }

// Cluster is an assembled URSA deployment.
type Cluster struct {
	opts     Options
	clk      clock.Clock
	Net      *transport.SimNet
	Master   *master.Master // Masters[0]; the bootstrap primary
	Masters  []*master.Master
	Machines []*Machine
	// Objstore is the cluster's simulated object store — the cold tier's
	// backing service, on its own fabric node so chaos can partition it.
	Objstore *objstore.Store

	metrics     *metrics.Registry
	masterAddrs []string
	servers     map[string]*chunkserver.Server
	clients     []*client.Client
	objRPC      *transport.Server
}

// hddJournalShare sizes the HDD overflow journal: 1/16 of the device.
const hddJournalShare = 16

// MasterAddr is the (first) master's fabric address; replicas are
// "master-1", "master-2", … in promotion-priority order.
const MasterAddr = "master"

// ObjstoreAddr is the simulated object store's fabric address.
const ObjstoreAddr = "objstore"

// New builds and starts a cluster.
func New(opts Options) (*Cluster, error) {
	opts.fillDefaults()
	c := &Cluster{
		opts:    opts,
		clk:     opts.Clock,
		Net:     transport.NewSimNet(opts.Clock, opts.NetLatency),
		metrics: metrics.NewRegistry(),
		servers: make(map[string]*chunkserver.Server),
	}

	// The object store comes up first: every master's config points at it
	// (snapshot flush targets, GC). Unlimited NIC — the latency/bandwidth
	// model inside the store is the service's own contention model.
	model := objstore.DefaultModel()
	if opts.ObjstoreModel != nil {
		model = *opts.ObjstoreModel
	}
	c.Objstore = objstore.New(opts.Clock, model)
	c.Objstore.SetMetrics(c.metrics)
	ol, err := c.Net.Listen(ObjstoreAddr, transport.NodeConfig{})
	if err != nil {
		return nil, err
	}
	c.objRPC = transport.Serve(ol, c.Objstore.Handler)

	c.masterAddrs = append(c.masterAddrs, MasterAddr)
	for i := 1; i < opts.Masters; i++ {
		c.masterAddrs = append(c.masterAddrs, fmt.Sprintf("%s-%d", MasterAddr, i))
	}
	for i := range c.masterAddrs {
		m, err := c.newMaster(i, false)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Masters = append(c.Masters, m)
	}
	c.Master = c.Masters[0]

	for i := 0; i < opts.Machines; i++ {
		m, err := c.buildMachine(i)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Machines = append(c.Machines, m)
	}
	return c, nil
}

// newMaster builds and serves the master at rank i (unlimited NIC: masters
// are off the data path). join makes it start as a standby regardless of
// rank — the healed-after-crash path, where resurrecting the bootstrap
// epoch would briefly split primacy.
func (c *Cluster) newMaster(i int, join bool) (*master.Master, error) {
	addr := c.masterAddrs[i]
	ml, err := c.Net.Listen(addr, transport.NodeConfig{})
	if err != nil {
		return nil, err
	}
	m := master.New(master.Config{
		Addr:         addr,
		Clock:        c.opts.Clock,
		Dialer:       c.Net.Dialer(addr, transport.NodeConfig{}),
		Replication:  c.opts.Replication,
		RPCTimeout:   c.opts.CallTimeout,
		HybridMode:   c.opts.Mode == Hybrid,
		Metrics:      c.metrics,
		Peers:        append([]string(nil), c.masterAddrs...),
		PrimacyTTL:   c.opts.MasterPrimacyTTL,
		JoinStandby:  join,
		ObjstoreAddr: ObjstoreAddr,
	})
	m.Serve(ml)
	return m, nil
}

// buildMachine assembles machine i: devices, servers per device, journal
// sets wiring backup HDDs to SSD journal regions, and master registration.
func (c *Cluster) buildMachine(i int) (*Machine, error) {
	opts := &c.opts
	m := &Machine{
		Name:   fmt.Sprintf("m%d", i),
		nicIn:  transport.NewTokenBucket(c.clk, opts.NICRate),
		nicOut: transport.NewTokenBucket(c.clk, opts.NICRate),
	}
	nodeCfg := transport.NodeConfig{SharedIn: m.nicIn, SharedOut: m.nicOut}

	for j := 0; j < opts.SSDsPerMachine; j++ {
		ssd := simdisk.NewSSD(opts.SSDModel, c.clk)
		fi := simdisk.NewFaultInjector(ssd, c.clk)
		fi.SetMetrics(c.metrics)
		m.SSDs = append(m.SSDs, ssd)
		m.SSDFaults = append(m.SSDFaults, fi)
	}
	for k := 0; k < opts.HDDsPerMachine; k++ {
		hdd := simdisk.NewHDD(opts.HDDModel, c.clk)
		fi := simdisk.NewFaultInjector(hdd, c.clk)
		fi.SetMetrics(c.metrics)
		m.HDDs = append(m.HDDs, hdd)
		m.HDDFaults = append(m.HDDFaults, fi)
	}

	// Primary-capable servers: one per SSD (hybrid and SSD-only modes), or
	// one per HDD in HDD-only mode.
	switch opts.Mode {
	case Hybrid:
		if err := c.addSSDServers(m, nodeCfg); err != nil {
			return nil, err
		}
		if err := c.addBackupServers(m, nodeCfg); err != nil {
			return nil, err
		}
	case SSDOnly:
		if err := c.addSSDServers(m, nodeCfg); err != nil {
			return nil, err
		}
	case HDDOnly:
		for k, hdd := range m.HDDFaults {
			addr := fmt.Sprintf("%s/hdd%d", m.Name, k)
			if err := c.addServer(m, nodeCfg, addr, blockstore.New(hdd, 0), nil); err != nil {
				return nil, err
			}
		}
	}

	if opts.Scrub != nil {
		scfg := *opts.Scrub
		if scfg.Metrics == nil {
			scfg.Metrics = c.metrics
		}
		targets := make([]scrub.Target, 0, len(m.Servers))
		for _, s := range m.Servers {
			targets = append(targets, s)
		}
		m.Scrubber = scrub.New(c.clk, scfg, targets...)
		m.Scrubber.Start()
	}
	return m, nil
}

// addSSDServers starts one primary server per SSD. In hybrid mode the tail
// JournalFraction of each SSD is reserved for the backup journals of this
// machine's HDDs.
func (c *Cluster) addSSDServers(m *Machine, nodeCfg transport.NodeConfig) error {
	opts := &c.opts
	for j, ssd := range m.SSDFaults {
		limit := ssd.Size()
		if opts.Mode == Hybrid {
			limit = util.AlignDown(int64(float64(ssd.Size())*(1-opts.JournalFraction)), util.ChunkSize)
		}
		if err := c.addServer(m, nodeCfg, fmt.Sprintf("%s/ssd%d", m.Name, j), blockstore.New(ssd, limit), nil); err != nil {
			return err
		}
	}
	return nil
}

// NewBackup builds what a backup chunk server stands on, laid out as §3.2
// has it and as every deployment in this tree runs it — the in-process
// cluster, the ursa-chunkserver daemon, the TCP test: chunk slots on hdd, a
// journal set in front of them with its SSD journal in [ssdBase,
// ssdBase+ssdSize) of ssd and, when overflow is set, an HDD journal in the
// device's last 1/hddJournalShare, the slots ending where it begins. The set
// is returned started. The regions name the journals so that a fault can
// target one; Disk is the caller's to fill in, with whatever it wrapped the
// devices in.
func NewBackup(clk clock.Clock, addr string, hdd, ssd simdisk.Disk, ssdBase, ssdSize int64,
	overflow bool, reg *metrics.Registry) (*blockstore.Store, *journal.Set, []JournalRegion) {

	storeLimit := hdd.Size()
	if overflow {
		storeLimit = util.AlignDown(hdd.Size()-hdd.Size()/hddJournalShare, util.ChunkSize)
	}
	store := blockstore.New(hdd, storeLimit)
	jcfg := journal.DefaultConfig()
	jcfg.Metrics = reg // group-commit batch/flush distributions
	jset := journal.NewSet(clk, store, jcfg)
	regions := []JournalRegion{{Server: addr, Name: addr + "-jssd", Base: ssdBase, Size: ssdSize}}
	jset.AddSSDJournal(regions[0].Name, ssd, ssdBase, ssdSize)
	if overflow {
		hj := JournalRegion{
			Server: addr, Name: addr + "-jhdd", Base: storeLimit,
			Size: util.AlignDown(hdd.Size()/hddJournalShare, util.SectorSize), HDD: true,
		}
		jset.AddHDDJournal(hj.Name, hdd, hj.Base, hj.Size)
		regions = append(regions, hj)
	}
	jset.Start()
	return store, jset, regions
}

// addBackupServers starts one backup server per HDD, each behind a journal
// set whose SSD journal is a region carved from a co-located SSD.
func (c *Cluster) addBackupServers(m *Machine, nodeCfg transport.NodeConfig) error {
	opts := &c.opts
	// Journal space on each SSD is split evenly among the HDDs it backs.
	ssdJournalSpace := int64(float64(opts.SSDModel.Capacity) * opts.JournalFraction)
	hddsPerSSD := (opts.HDDsPerMachine + opts.SSDsPerMachine - 1) / opts.SSDsPerMachine
	perHDDJournal := util.AlignDown(ssdJournalSpace/int64(hddsPerSSD), util.SectorSize)

	for k, hdd := range m.HDDFaults {
		addr := fmt.Sprintf("%s/hdd%d", m.Name, k)
		ssd := m.SSDFaults[k%opts.SSDsPerMachine]
		slot := int64(k / opts.SSDsPerMachine)
		base := util.AlignDown(int64(float64(ssd.Size())*(1-opts.JournalFraction)), util.ChunkSize) +
			slot*perHDDJournal
		store, jset, regions := NewBackup(c.clk, addr, hdd, ssd, base, perHDDJournal, opts.HDDJournal, c.metrics)
		regions[0].Disk = ssd
		if opts.HDDJournal {
			regions[1].Disk = hdd
		}
		m.JournalRegions = append(m.JournalRegions, regions...)
		m.jsets = append(m.jsets, jset)
		if err := c.addServer(m, nodeCfg, addr, store, jset); err != nil {
			return err
		}
	}
	return nil
}

// addServer builds the chunk server at addr over store — a backup server
// when jset is not nil, a primary-capable one otherwise — serves it and
// registers it with the master.
func (c *Cluster) addServer(m *Machine, nodeCfg transport.NodeConfig, addr string, store *blockstore.Store, jset *journal.Set) error {
	srv := chunkserver.New(chunkserver.Config{
		Addr:            addr,
		Clock:           c.clk,
		Dialer:          c.Net.Dialer(addr, nodeCfg),
		ReplTimeout:     c.opts.ReplTimeout,
		Metrics:         c.metrics,
		BypassThreshold: c.opts.BypassThreshold,
		MasterAddrs:     c.masterAddrs,
	}, store, jset)
	l, err := c.Net.Listen(addr, nodeCfg)
	if err != nil {
		return err
	}
	srv.Serve(l)
	m.Servers = append(m.Servers, srv)
	c.servers[addr] = srv
	c.Master.AddServer(addr, m.Name, jset == nil, store.Capacity())
	return nil
}

// Server returns the chunk server at addr, or nil.
func (c *Cluster) Server(addr string) *chunkserver.Server { return c.servers[addr] }

// ServerAddrs lists all chunk-server addresses.
func (c *Cluster) ServerAddrs() []string {
	addrs := make([]string, 0, len(c.servers))
	for _, m := range c.Machines {
		for _, s := range m.Servers {
			addrs = append(addrs, s.Addr())
		}
	}
	return addrs
}

// NewClient creates a client portal on its own fabric node (a "VMM host").
func (c *Cluster) NewClient(name string) *client.Client {
	cfg := transport.NodeConfig{InRate: c.opts.NICRate, OutRate: c.opts.NICRate}
	cl := client.New(client.Config{
		Name:          name,
		MasterAddrs:   c.masterAddrs,
		Clock:         c.clk,
		Dialer:        c.Net.Dialer(name, cfg),
		TinyThreshold: c.opts.TinyThreshold,
		CallTimeout:   c.opts.CallTimeout,
		IOTimeout:     c.opts.IOTimeout,
		Metrics:       c.metrics,
	})
	c.clients = append(c.clients, cl)
	return cl
}

// CrashServer makes a chunk server unreachable (its process/machine died,
// from the protocol's perspective).
func (c *Cluster) CrashServer(addr string) { c.Net.Crash(addr) }

// RestartServer brings a crashed server's node back.
func (c *Cluster) RestartServer(addr string) { c.Net.Restart(addr) }

// MasterAddrs lists the master endpoints in promotion-priority order.
func (c *Cluster) MasterAddrs() []string { return append([]string(nil), c.masterAddrs...) }

// KillMaster crashes master i: its fabric node drops and its process
// stops. With replicas, a standby notices the silence and promotes itself
// after roughly one primacy TTL.
func (c *Cluster) KillMaster(i int) {
	c.Net.Crash(c.masterAddrs[i])
	c.Masters[i].Close()
}

// HealMaster restarts a killed master as a fresh process joining as a
// standby: it rejoins with no state and catches up from the current
// primary's log.
func (c *Cluster) HealMaster(i int) error {
	c.Net.Restart(c.masterAddrs[i])
	m, err := c.newMaster(i, true)
	if err != nil {
		return err
	}
	c.Masters[i] = m
	if i == 0 {
		c.Master = m
	}
	return nil
}

// PrimaryMaster returns the live master currently claiming primacy (the
// highest epoch wins a transient dual claim), or nil during a blackout.
func (c *Cluster) PrimaryMaster() *master.Master {
	var best *master.Master
	for i, m := range c.Masters {
		if m == nil || c.Net.Down(c.masterAddrs[i]) || !m.IsPrimary() {
			continue
		}
		if best == nil || m.Epoch() > best.Epoch() {
			best = m
		}
	}
	return best
}

// Close shuts the whole cluster down.
func (c *Cluster) Close() {
	for _, cl := range c.clients {
		cl.Close()
	}
	for _, m := range c.Masters {
		if m != nil {
			m.Close()
		}
	}
	if c.objRPC != nil {
		c.objRPC.Close()
	}
	for _, m := range c.Machines {
		// Scrubbers first: they probe through the servers and must not
		// race a closing server or store.
		if m.Scrubber != nil {
			m.Scrubber.Close()
		}
		for _, s := range m.Servers {
			s.Close()
		}
		for _, d := range m.SSDs {
			d.Close()
		}
		for _, d := range m.HDDs {
			d.Close()
		}
	}
}

// Mode returns the cluster's replication mode.
func (c *Cluster) Mode() Mode { return c.opts.Mode }

// Clock returns the cluster clock.
func (c *Cluster) Clock() clock.Clock { return c.clk }

// Metrics returns the cluster-wide stage-latency registry.
func (c *Cluster) Metrics() *metrics.Registry { return c.metrics }
