package master

import (
	"encoding/json"
	"sync"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/chunkserver"
	"ursa/internal/clock"
	"ursa/internal/coldtier"
	"ursa/internal/metrics"
	"ursa/internal/proto"
	"ursa/internal/transport"
	"ursa/internal/util/backoff"
)

// Config parameterizes the master.
type Config struct {
	Addr   string
	Clock  clock.Clock
	Dialer transport.Dialer
	// Replication is the default replica count per chunk (3).
	Replication int
	// LeaseTTL is the client lease duration ("tens of seconds", §4.1).
	LeaseTTL time.Duration
	// WriteRateLimit caps each client's write bandwidth (0 = unlimited).
	WriteRateLimit float64
	// RPCTimeout bounds the master's own calls to chunk servers.
	RPCTimeout time.Duration
	// HybridMode places backups on HDD servers; when false (SSD-only mode,
	// the paper's Ursa-SSD configuration) backups are placed on SSD
	// servers too.
	HybridMode bool
	// Metrics, when non-nil, receives recovery observability: the
	// chunk-recoveries counter and the chunk-recovery-duration histogram.
	Metrics *metrics.Registry
	// Peers lists every master endpoint, including this master's own Addr,
	// in promotion-priority order (index = rank; Peers[0] bootstraps as
	// primary). One entry or fewer disables replication entirely: the
	// master is always primary and stamps no epochs.
	Peers []string
	// PrimacyTTL is the master-primacy lease: the primary heartbeats every
	// PrimacyTTL/4 and a standby promotes after roughly one TTL of
	// silence (rank-staggered).
	PrimacyTTL time.Duration
	// JoinStandby makes this master start as a standby even at rank 0 —
	// set when (re)joining an already-running cluster, where resurrecting
	// the bootstrap epoch would briefly split primacy.
	JoinStandby bool
	// ObjstoreAddr is the cold tier's object store endpoint; "" disables
	// snapshots, clones, and GC.
	ObjstoreAddr string
	// GCInterval paces the background cold-tier GC loop (0 disables the
	// loop; RunColdGC remains callable directly).
	GCInterval time.Duration
	// GCLiveFraction is the live-bytes threshold below which GC rewrites a
	// segment's surviving extents and reclaims it (default 0.5).
	GCLiveFraction float64
}

func (c *Config) fillDefaults() {
	if c.Clock == nil {
		c.Clock = clock.Realtime
	}
	if c.Replication <= 0 {
		c.Replication = 3
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 30 * time.Second
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 2 * time.Second
	}
	if c.PrimacyTTL <= 0 {
		c.PrimacyTTL = 2 * time.Second
	}
	if len(c.Peers) == 1 {
		c.Peers = nil // a single endpoint is the unreplicated configuration
	}
	if c.GCLiveFraction <= 0 {
		c.GCLiveFraction = 0.5
	}
}

// serverInfo is one registered chunk server.
type serverInfo struct {
	addr    string
	machine string
	ssd     bool
}

// lease tracks the single client of a vdisk (§4.1).
type lease struct {
	holder string
	expiry time.Time
}

// vdisk is the master-side state of one virtual disk.
type vdisk struct {
	meta  VDiskMeta
	lease lease
}

// Master is the global coordinator.
type Master struct {
	cfg Config

	mu          sync.Mutex
	servers     []serverInfo
	vdisks      map[uint32]*vdisk
	byName      map[string]uint32
	nextID      uint32
	nextPrimary int // round-robin cursors for placement
	nextBackup  int
	viewChanges int

	// Cold-tier state (guarded by mu). nextSeg is the replicated segment-ID
	// watermark; inflightFlushes counts snapshot flushes between their
	// segment-range allocation and metadata record, during which GC must not
	// judge fresh segments dead. coldReports is primary-local soft state:
	// which replicas of a cloned chunk have reported full materialization.
	snapshots       map[string]*SnapshotMeta
	nextSeg         uint64
	inflightFlushes int
	coldReports     map[uint64]map[string]bool

	peers *transport.Peers

	// recMu guards recovering: one in-flight view change per chunk.
	// Reporters of an already-recovering chunk wait for that recovery and
	// share its outcome instead of starting a duplicate clone.
	recMu      sync.Mutex
	recovering map[uint64]chan struct{}

	// Replication state (guarded by mu; see replication.go). epoch 0 with
	// primary=true is the unreplicated configuration.
	primary     bool
	epoch       uint64
	primaryAddr string    // best-known primary endpoint
	lastHeard   time.Time // last heartbeat/batch from the primary
	log         []logEntry
	shipKick    map[string]chan struct{}
	closedCh    chan struct{}
	closeOnce   sync.Once
	wg          sync.WaitGroup

	// Cold-tier GC machinery (see coldgc.go). gcMu serializes passes;
	// gcCh/gcWg/gcOnce run the interval loop independently of the
	// replication lifecycle.
	coldCl *coldtier.Client
	gcMu   sync.Mutex
	gcCh   chan struct{}
	gcOnce sync.Once
	gcWg   sync.WaitGroup

	rpc *transport.Server
}

// New creates a master. With cfg.Peers configured it also starts the
// replication machinery (log shippers toward every other endpoint and the
// promotion monitor); Close stops them.
func New(cfg Config) *Master {
	cfg.fillDefaults()
	m := &Master{
		cfg:         cfg,
		vdisks:      make(map[uint32]*vdisk),
		byName:      make(map[string]uint32),
		peers:       transport.NewPeers(cfg.Dialer, cfg.Clock),
		recovering:  make(map[uint64]chan struct{}),
		snapshots:   make(map[string]*SnapshotMeta),
		nextSeg:     1,
		coldReports: make(map[uint64]map[string]bool),
	}
	m.peers.SetRedial(backoff.Policy{Base: cfg.RPCTimeout / 40, Cap: cfg.RPCTimeout / 4}, 2)
	if !m.replicationEnabled() {
		m.primary = true
	}
	m.initReplication()
	if cfg.ObjstoreAddr != "" {
		m.coldCl = coldtier.NewClient(m.peers, cfg.ObjstoreAddr)
		if cfg.GCInterval > 0 {
			m.gcCh = make(chan struct{})
			m.gcWg.Add(1)
			go m.gcLoop()
		}
	}
	return m
}

// Serve starts the master's RPC service.
func (m *Master) Serve(l transport.Listener) { m.rpc = transport.Serve(l, m.Handle) }

// Close stops the RPC service and the replication and GC goroutines.
func (m *Master) Close() {
	if m.gcCh != nil {
		m.gcOnce.Do(func() { close(m.gcCh) })
		m.gcWg.Wait()
	}
	m.stopReplication()
	if m.rpc != nil {
		m.rpc.Close()
	}
	m.peers.CloseAll()
}

// AddServer registers a chunk server (Go API; MOpRegister is the RPC form).
func (m *Master) AddServer(addr, machine string, ssd bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.addServerLocked(addr, machine, ssd) {
		m.appendLocked(entryKindServer, RegisterReq{Addr: addr, Machine: machine, SSD: ssd})
	}
}

func (m *Master) addServerLocked(addr, machine string, ssd bool) bool {
	for _, s := range m.servers {
		if s.addr == addr {
			return false
		}
	}
	m.servers = append(m.servers, serverInfo{addr: addr, machine: machine, ssd: ssd})
	return true
}

// admin sends one command to a chunk server through the shared peer pool,
// which evicts the cached connection on transport faults so the next use
// redials. body, when non-nil, is the command's JSON payload. The request is
// stamped with the current primacy epoch (zero when replication is off) and
// a StatusStaleEpoch rejection deposes this master on the spot: some
// chunkserver has witnessed a newer primary. ok reports a StatusOK answer;
// resp is nil when the server never answered.
func (m *Master) admin(addr string, op proto.Op, id blockstore.ChunkID, view, version uint64,
	body any, timeout time.Duration) (resp *proto.Message, ok bool) {

	req := &proto.Message{Op: op, Chunk: id, View: view, Version: version}
	if body != nil {
		payload, err := json.Marshal(body)
		if err != nil {
			return nil, false
		}
		req.Payload = payload
	}
	if m.replicationEnabled() {
		req.Epoch = m.Epoch()
	}
	resp, err := m.peers.Call(addr, req, timeout)
	if err != nil {
		return nil, false
	}
	if resp.Status == proto.StatusStaleEpoch {
		m.fencedByEpoch(resp.Epoch)
	}
	return resp, resp.Status == proto.StatusOK
}

// createReplica (re)creates a chunk replica's slot on addr. A slot that
// already exists — a restarted server re-attaching, a retried recovery — is
// as good as a fresh one.
func (m *Master) createReplica(addr string, id blockstore.ChunkID, req chunkserver.CreateChunkReq) bool {
	resp, ok := m.admin(addr, proto.OpCreateChunk, id, 0, 0, req, m.cfg.RPCTimeout)
	return ok || (resp != nil && resp.Status == proto.StatusExists)
}

// Handle dispatches master RPCs. Replication control traffic
// (MOpReplicateLog, MOpMasterInfo) is served in any role; every other op
// is a client/chunkserver metadata op that only the primary may serve —
// standbys answer StatusNotPrimary with a redirect hint. The handlers
// re-check primacy under m.mu before mutating, so a deposition racing an
// in-flight request cannot smuggle an unlogged mutation into a standby.
func (m *Master) Handle(msg *proto.Message) *proto.Message {
	switch msg.Op {
	case proto.MOpReplicateLog:
		return m.jsonReply(msg, m.handleReplicateLog(msg))
	case proto.MOpMasterInfo:
		return m.jsonReply(msg, m.handleMasterInfo(msg))
	}
	if m.replicationEnabled() && !m.IsPrimary() {
		m.mu.Lock()
		res := m.notPrimaryLocked()
		m.mu.Unlock()
		return m.jsonReply(msg, res)
	}
	switch msg.Op {
	case proto.MOpCreateVDisk:
		return m.jsonReply(msg, m.handleCreate(msg))
	case proto.MOpOpenVDisk:
		return m.jsonReply(msg, m.handleOpen(msg))
	case proto.MOpRenewLease:
		return m.jsonReply(msg, m.handleRenew(msg))
	case proto.MOpCloseVDisk:
		return m.jsonReply(msg, m.handleClose(msg))
	case proto.MOpDeleteVDisk:
		return m.jsonReply(msg, m.handleDelete(msg))
	case proto.MOpReportFailure:
		return m.jsonReply(msg, m.handleReportFailure(msg))
	case proto.MOpGetVDisk:
		return m.jsonReply(msg, m.handleGet(msg))
	case proto.MOpStats:
		return m.jsonReply(msg, m.handleStats(msg))
	case proto.MOpRegister:
		return m.jsonReply(msg, m.handleRegister(msg))
	case proto.MOpSnapshot:
		return m.jsonReply(msg, m.handleSnapshot(msg))
	case proto.MOpCloneFromSnapshot:
		return m.jsonReply(msg, m.handleClone(msg))
	case proto.MOpDeleteSnapshot:
		return m.jsonReply(msg, m.handleDeleteSnapshot(msg))
	case proto.MOpChunkMaterialized:
		return m.jsonReply(msg, m.handleMaterialized(msg))
	case proto.MOpGetColdRefs:
		return m.jsonReply(msg, m.handleGetColdRefs(msg))
	default:
		return msg.Reply(proto.StatusError)
	}
}

// jsonResult pairs a status with a JSON-encodable body.
type jsonResult struct {
	status proto.Status
	body   any
}

func ok(body any) jsonResult              { return jsonResult{proto.StatusOK, body} }
func fail(status proto.Status) jsonResult { return jsonResult{status, nil} }

func (m *Master) jsonReply(msg *proto.Message, res jsonResult) *proto.Message {
	r := msg.Reply(res.status)
	if res.body != nil {
		b, err := json.Marshal(res.body)
		if err != nil {
			return msg.Reply(proto.StatusError)
		}
		r.Payload = b
	}
	return r
}

func (m *Master) handleRegister(msg *proto.Message) jsonResult {
	var req RegisterReq
	if err := json.Unmarshal(msg.Payload, &req); err != nil {
		return fail(proto.StatusError)
	}
	m.AddServer(req.Addr, req.Machine, req.SSD)
	return ok(nil)
}

func (m *Master) handleStats(*proto.Message) jsonResult {
	m.mu.Lock()
	defer m.mu.Unlock()
	return ok(StatsResp{
		Servers:     len(m.servers),
		VDisks:      len(m.vdisks),
		ViewChanges: m.viewChanges,
	})
}
