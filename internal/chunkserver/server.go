package chunkserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/coldtier"
	"ursa/internal/journal"
	"ursa/internal/metrics"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/redundancy"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// Config parameterizes a chunk server.
type Config struct {
	// Addr is the server's address on its transport fabric.
	Addr string
	// Role selects primary (SSD store) or backup (HDD store + journals).
	Role Role
	// Clock supplies time.
	Clock clock.Clock
	// Dialer reaches peer servers for replication and recovery.
	Dialer transport.Dialer
	// ReplTimeout is the commit-rule window (§4.2.1) for operations that
	// arrive WITHOUT a propagated deadline — background work and peers
	// predating op threading. Client-initiated ops never use it: their
	// replication budget derives from the op's remaining deadline
	// (see opBudget), so the majority rule fires relative to the client's
	// actual budget.
	ReplTimeout time.Duration
	// Metrics, when non-nil, receives per-stage latency observations for
	// every op this server services (shared cluster-wide by core).
	Metrics *metrics.Registry
	// BypassThreshold is Tj: backup writes larger than this skip the
	// journal (§3.2). 0 means the 64 KB paper default.
	BypassThreshold int
	// LiteCap bounds the per-chunk journal-lite history.
	LiteCap int
	// MaxInflight bounds concurrent handlers per transport connection
	// (server-side admission queue depth). 0 means the transport default.
	MaxInflight int
	// MasterAddr, when set, is where device I/O failures are reported
	// (MOpReportFailure): a chunk whose store or journal replay hits a
	// persistent error asks the master for the §4.2.2 view change that
	// re-replicates it elsewhere. Empty disables reporting.
	MasterAddr string
	// MasterAddrs lists every master endpoint when the control plane is
	// replicated. Failure reports rotate through the list on transport
	// errors or StatusNotPrimary redirects. fillDefaults folds MasterAddr
	// in, so single-master configurations need not set this.
	MasterAddrs []string
	// ReportCooldown throttles per-chunk failure reports: a chunk taking
	// sustained I/O errors reports at most once per cooldown, so a storm of
	// failing requests cannot flood the master with duplicate view changes.
	// 0 means 1s.
	ReportCooldown time.Duration
}

func (c *Config) fillDefaults() {
	if c.Clock == nil {
		c.Clock = clock.Realtime
	}
	if c.ReplTimeout <= 0 {
		c.ReplTimeout = 500 * time.Millisecond
	}
	if c.BypassThreshold <= 0 {
		c.BypassThreshold = 64 * util.KiB
	}
	if c.LiteCap <= 0 {
		c.LiteCap = 4096
	}
	if c.ReportCooldown <= 0 {
		c.ReportCooldown = time.Second
	}
	if c.MasterAddr != "" {
		found := false
		for _, a := range c.MasterAddrs {
			if a == c.MasterAddr {
				found = true
				break
			}
		}
		if !found {
			c.MasterAddrs = append([]string{c.MasterAddr}, c.MasterAddrs...)
		}
	}
	if c.MasterAddr == "" && len(c.MasterAddrs) > 0 {
		c.MasterAddr = c.MasterAddrs[0]
	}
}

// Metric names published by the pipelined write path.
const (
	// MetricPendingWrites samples the per-chunk pending-write depth at
	// admission — the queue depth the pipeline actually sustains at the
	// device.
	MetricPendingWrites = "chunk-pending-writes"
	// MetricDepWait is the time a write spends blocked on overlapping
	// pending predecessors before its own device apply may start.
	MetricDepWait = "chunk-dep-wait"
	// MetricChecksumMismatches counts reads whose payload failed CRC-32C
	// verification even after re-reads — confirmed silent corruption, each
	// occurrence also reported to the master for repair.
	MetricChecksumMismatches = "chunk-checksum-mismatches"
	// MetricStaleEpochRejections counts master-driven commands fenced off
	// because they carried a deposed master's epoch.
	MetricStaleEpochRejections = "chunk-stale-epoch-rejections"
)

// Stats is a snapshot of server activity for the efficiency benches
// (Fig 7). It is a read-only view over the server's metrics counters.
type Stats struct {
	Reads, Writes, Replicates int64
	BytesRead, BytesWritten   int64
	Repairs, Clones           int64
	UpgradeGen                int64
}

// Server is one chunk-server process.
type Server struct {
	cfg   Config
	store *blockstore.Store
	jset  *journal.Set // nil for primaries

	// chunks is the chunk registry, striped by chunk ID hash: every request
	// resolves its chunkState here, so one registry mutex would serialize
	// the whole data path at QD32.
	chunks [chunkShards]chunkShard
	peers  *transport.Peers
	// bcast fans replication shipments out onto pooled workers with pooled
	// result collectors (no per-write goroutines/channels on the hot path).
	bcast *transport.Broadcaster

	// upMu/upCond gate request admission during a hot upgrade (§5.2):
	// Handle parks on the condvar while draining, Upgrade parks until the
	// in-flight count drains — no poll loops, no burnt (simulated) time.
	upMu     sync.Mutex
	upCond   *sync.Cond
	inflight int
	draining bool
	upGen    atomic.Int64

	reads, writes, replicates  metrics.Counter
	bytesRead, bytesWritten    metrics.Counter
	repairCount, cloneCount    metrics.Counter
	degradedCommits, noQuorums metrics.Counter

	// failMu guards the per-chunk-and-address report throttle (see
	// reportFailure).
	failMu     sync.Mutex
	lastReport map[string]time.Time

	// masterEpoch is the newest master primacy epoch this server has
	// witnessed; commands stamped with an older one are rejected
	// (StatusStaleEpoch) — the fence that stops a deposed master.
	masterEpoch atomic.Uint64
	// masterIdx remembers which MasterAddrs entry last answered a failure
	// report, so reports go straight to the acting primary.
	masterIdx atomic.Int64

	rpc *transport.Server
}

// New creates a chunk server over store (and jset for backups; nil for
// primaries).
func New(cfg Config, store *blockstore.Store, jset *journal.Set) *Server {
	cfg.fillDefaults()
	if cfg.Role == RoleBackup && jset == nil {
		panic("chunkserver: backup role requires a journal set")
	}
	s := &Server{
		cfg:        cfg,
		store:      store,
		jset:       jset,
		peers:      transport.NewPeers(cfg.Dialer, cfg.Clock),
		lastReport: make(map[string]time.Time),
	}
	for i := range s.chunks {
		s.chunks[i].m = make(map[blockstore.ChunkID]*chunkState)
	}
	s.bcast = transport.NewBroadcaster(s.peers)
	s.upCond = sync.NewCond(&s.upMu)
	if jset != nil {
		// A journal dying is handled inside the set (re-route, then bypass)
		// and needs no view change; a PARKED replay means this chunk's data
		// cannot reach the backup disk at all — ask the master to
		// re-replicate it elsewhere.
		jset.OnFault(nil, func(id blockstore.ChunkID, err error) {
			s.reportDeviceFailure(id, err)
		})
	}
	return s
}

// reportFailureReq mirrors master.ReportFailureReq; the master package
// imports this one, so the wire shape is duplicated here (same JSON tags).
type reportFailureReq struct {
	VDisk      uint32 `json:"vdisk"`
	ChunkIndex uint32 `json:"chunkIndex"`
	FailedAddr string `json:"failedAddr,omitempty"`
}

// reportDeviceFailure asks the master (fire-and-forget) to run the §4.2.2
// view change for a chunk whose local device I/O failed, naming this
// server as the failed replica.
func (s *Server) reportDeviceFailure(id blockstore.ChunkID, cause error) {
	if cause == nil {
		return
	}
	s.reportFailure(id, s.cfg.Addr)
}

// reportFailure asks the master (fire-and-forget) to run the §4.2.2 view
// change for a chunk, naming failedAddr as the suspect replica — this
// server itself on device errors, or a segment holder whose RS fan-out ack
// never arrived. Reports are throttled per (chunk, address) so request
// storms against a dead disk collapse into one view change; the master's
// recovery is idempotent regardless (a second report after the view moved
// finds the address already repaired).
func (s *Server) reportFailure(id blockstore.ChunkID, failedAddr string) {
	if len(s.cfg.MasterAddrs) == 0 {
		return
	}
	key := id.String() + "|" + failedAddr
	now := s.cfg.Clock.Now()
	s.failMu.Lock()
	if last, ok := s.lastReport[key]; ok && now.Sub(last) < s.cfg.ReportCooldown {
		s.failMu.Unlock()
		return
	}
	s.lastReport[key] = now
	s.failMu.Unlock()

	go func() {
		payload, err := json.Marshal(reportFailureReq{
			VDisk:      id.VDisk(),
			ChunkIndex: id.Index(),
			FailedAddr: failedAddr,
		})
		if err != nil {
			return
		}
		// Recovery clones a whole chunk synchronously before the master
		// replies, so the window is far beyond a normal RPC's.
		op := opctx.New(s.cfg.Clock, 120*s.cfg.ReplTimeout)
		if s.cfg.Metrics != nil {
			op = op.WithSink(s.cfg.Metrics)
		}
		// Rotate through the master endpoints starting at the one that
		// last answered: during a failover the old primary times out or
		// redirects (StatusNotPrimary) and the report lands on a standby
		// or the new primary on a later turn of the loop. Re-sending the
		// same payload slice is safe — JSON buffers are foreign to
		// bufpool, so the per-attempt Put is a no-op.
		addrs := s.cfg.MasterAddrs
		start := int(s.masterIdx.Load()) % len(addrs)
		for i := 0; i < len(addrs); i++ {
			idx := (start + i) % len(addrs)
			resp, err := s.peers.Do(op, addrs[idx], &proto.Message{
				Op:      proto.MOpReportFailure,
				Payload: payload,
			}, 0)
			if err != nil {
				continue
			}
			status := resp.Status
			bufpool.Put(resp.Payload)
			proto.Recycle(resp)
			if status != proto.StatusNotPrimary {
				s.masterIdx.Store(int64(idx))
				return
			}
		}
	}()
}

// Serve starts handling requests on l. It returns immediately.
func (s *Server) Serve(l transport.Listener) {
	var opts []transport.ServeOption
	if s.cfg.MaxInflight > 0 {
		opts = append(opts, transport.WithMaxInflight(s.cfg.MaxInflight))
	}
	if s.cfg.Metrics != nil {
		opts = append(opts, transport.WithQueueMetrics(s.cfg.Metrics))
	}
	s.rpc = transport.Serve(l, s.Handle, opts...)
}

// Close stops the RPC server and the journal replayer.
func (s *Server) Close() {
	if s.rpc != nil {
		s.rpc.Close()
	}
	s.bcast.Close()
	s.peers.CloseAll()
	if s.jset != nil {
		s.jset.Close()
	}
}

// Addr returns the configured address.
func (s *Server) Addr() string { return s.cfg.Addr }

// StoreUsedBytes returns the physical bytes held by this server's chunk
// slots — what the erasure-coding bench sums into storage overhead.
func (s *Server) StoreUsedBytes() int64 { return s.store.UsedBytes() }

// Role returns the server role.
func (s *Server) Role() Role { return s.cfg.Role }

// Stats returns an activity snapshot.
func (s *Server) Stats() Stats {
	return Stats{
		Reads:        s.reads.Load(),
		Writes:       s.writes.Load(),
		Replicates:   s.replicates.Load(),
		BytesRead:    s.bytesRead.Load(),
		BytesWritten: s.bytesWritten.Load(),
		Repairs:      s.repairCount.Load(),
		Clones:       s.cloneCount.Load(),
		UpgradeGen:   s.upGen.Load(),
	}
}

// chunkShards stripes the chunk registry; power of two.
const chunkShards = 32

type chunkShard struct {
	mu sync.Mutex
	m  map[blockstore.ChunkID]*chunkState
}

func (s *Server) shard(id blockstore.ChunkID) *chunkShard {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return &s.chunks[h>>59&(chunkShards-1)]
}

// chunk returns the state for id, or nil.
func (s *Server) chunk(id blockstore.ChunkID) *chunkState {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.m[id]
}

// Handle dispatches one request; it is the transport.Handler.
func (s *Server) Handle(m *proto.Message) *proto.Message {
	// Graceful upgrade: brief pause while the new "process" takes over.
	s.upMu.Lock()
	for s.draining {
		s.upCond.Wait()
	}
	s.inflight++
	s.upMu.Unlock()
	defer func() {
		s.upMu.Lock()
		s.inflight--
		if s.draining && s.inflight <= 1 {
			s.upCond.Broadcast()
		}
		s.upMu.Unlock()
	}()

	// Epoch fence: a master-driven command stamped with an epoch older
	// than the newest this server has witnessed comes from a deposed
	// master — reject it before it can touch views, versions, or chunk
	// membership. Newer epochs are adopted (the new primary's fencing
	// OpNop broadcast lands here too); epoch 0 is unfenced, which keeps
	// client data-path ops and single-master clusters out of the protocol.
	if m.Epoch != 0 && masterDriven(m.Op) {
		if cur, adopted := s.witnessEpoch(m.Epoch); !adopted {
			if s.cfg.Metrics != nil {
				s.cfg.Metrics.Counter(MetricStaleEpochRejections).Inc()
			}
			r := m.Reply(proto.StatusStaleEpoch)
			r.Epoch = cur // tell the deposed sender what fenced it
			return r
		}
	}

	// Rebuild the request context the message belongs to: same op ID, the
	// sender's remaining budget re-anchored on our clock. Every wait below
	// derives its window from this op, never from a fixed constant.
	op := opctx.FromWire(s.cfg.Clock, m.OpID, m.Budget)
	if s.cfg.Metrics != nil {
		op = op.WithSink(s.cfg.Metrics)
	}

	switch m.Op {
	case proto.OpNop:
		return m.Reply(proto.StatusOK)
	case proto.OpRead:
		return s.handleRead(op, m)
	case proto.OpWrite:
		return s.handleWrite(op, m, true)
	case proto.OpWritePrimary:
		return s.handleWrite(op, m, false)
	case proto.OpReplicate:
		return s.handleReplicate(op, m)
	case proto.OpGetVersion:
		return s.handleGetVersion(m)
	case proto.OpCreateChunk:
		return s.handleCreateChunk(m)
	case proto.OpDeleteChunk:
		return s.handleDeleteChunk(m)
	case proto.OpRepairSince:
		return s.handleRepairSince(m)
	case proto.OpApplyRepair:
		return s.handleApplyRepair(m)
	case proto.OpFetchChunk:
		return s.handleFetchChunk(op, m)
	case proto.OpFlushChunks:
		return s.handleFlushChunks(op, m)
	case proto.OpSetView:
		return s.handleSetView(m)
	case proto.OpCloneChunk:
		return s.handleCloneChunk(op, m)
	case proto.OpRepairFrom:
		return s.handleRepairFrom(op, m)
	case proto.OpRebuildSegment:
		return s.handleRebuildSegment(op, m)
	case proto.OpFetchSegment:
		return s.handleFetchSegment(op, m)
	case proto.OpUpgrade:
		go s.Upgrade()
		return m.Reply(proto.StatusOK)
	default:
		return m.Reply(proto.StatusError)
	}
}

// masterDriven reports whether op is a command only the master originates
// — the set that must be epoch-fenced. Data-path ops (reads, writes,
// replicates) are excluded: clients are fenced by view numbers, not
// epochs. OpNop is included as the promotion broadcast vehicle.
func masterDriven(op proto.Op) bool {
	switch op {
	case proto.OpNop, proto.OpCreateChunk, proto.OpDeleteChunk, proto.OpSetView,
		proto.OpCloneChunk, proto.OpRepairFrom, proto.OpApplyRepair,
		proto.OpRebuildSegment, proto.OpFlushChunks:
		return true
	}
	return false
}

// witnessEpoch folds e into the newest-witnessed master epoch: adopted
// reports whether e is current (>= the max seen); cur returns the fencing
// epoch when it is not.
func (s *Server) witnessEpoch(e uint64) (cur uint64, adopted bool) {
	for {
		cur = s.masterEpoch.Load()
		if e < cur {
			return cur, false
		}
		if e == cur || s.masterEpoch.CompareAndSwap(cur, e) {
			return e, true
		}
	}
}

// MasterEpoch returns the newest master epoch this server has witnessed.
func (s *Server) MasterEpoch() uint64 { return s.masterEpoch.Load() }

// opBudget derives the window this server may spend waiting on op's behalf
// (backup acks, version-slot queueing, recovery pulls). Ops carrying a
// deadline get 3/4 of the remaining budget — the rest is reserved for the
// response's return trip and the caller's bookkeeping, so the §4.2.1
// majority rule fires while the client is still listening. Deadline-less
// ops (background work, peers predating op threading) fall back to the
// configured window.
func (s *Server) opBudget(op *opctx.Op, fallback time.Duration) time.Duration {
	rem, ok := op.Remaining()
	if !ok {
		return fallback
	}
	if rem <= 0 {
		return time.Nanosecond // fail fast, but never "wait forever"
	}
	return rem * 3 / 4
}

// CreateChunkReq is the JSON payload of OpCreateChunk.
type CreateChunkReq struct {
	// Backups are peer addresses the primary replicates to (primary only).
	Backups []string `json:"backups,omitempty"`
	// View is the chunk's initial view number.
	View uint64 `json:"view"`
	// Version seeds the replica version (non-zero when re-creating a
	// replica that will be cloned to a known state).
	Version uint64 `json:"version,omitempty"`
	// Redundancy is the chunk's redundancy policy. The zero value is
	// mirroring, so pre-RS callers need not set it.
	Redundancy redundancy.Spec `json:"redundancy,omitempty"`
	// Holder marks this replica as an RS segment holder storing only
	// segment Seg (a ChunkSize/N slice) rather than the whole chunk.
	Holder bool `json:"holder,omitempty"`
	// Seg is the segment index this holder stores (valid when Holder).
	Seg int `json:"seg,omitempty"`
	// Cold lists the object-backed extents of a cloned chunk; the replica
	// demand-fetches them from the object store at ObjAddr on first access.
	Cold    []coldtier.ExtentRef `json:"cold,omitempty"`
	ObjAddr string               `json:"objAddr,omitempty"`
}

// newChunkStateFrom builds the per-chunk state a CreateChunkReq describes.
func (s *Server) newChunkStateFrom(req CreateChunkReq) (*chunkState, error) {
	strat, err := redundancy.New(req.Redundancy)
	if err != nil {
		return nil, err
	}
	cs := newChunkState(req.View, req.Backups, s.cfg.LiteCap)
	cs.version = req.Version
	cs.reserved = req.Version
	cs.spec = req.Redundancy
	cs.strat = strat
	cs.holder = req.Holder
	cs.seg = req.Seg
	if len(req.Cold) > 0 {
		cs.cold = &coldState{
			objAddr: req.ObjAddr,
			refs:    append([]coldtier.ExtentRef(nil), req.Cold...),
		}
	}
	return cs, nil
}

func (s *Server) handleCreateChunk(m *proto.Message) *proto.Message {
	var req CreateChunkReq
	if len(m.Payload) > 0 {
		if err := json.Unmarshal(m.Payload, &req); err != nil {
			return m.Reply(proto.StatusError)
		}
	}
	cs, err := s.newChunkStateFrom(req)
	if err != nil {
		return m.Reply(proto.StatusError)
	}
	if err := s.store.CreateSized(m.Chunk, cs.span()); err != nil {
		if errors.Is(err, util.ErrExists) {
			// A restarted server re-attaches to chunks that survived on its
			// store: install fresh in-memory state over the existing slot
			// (and its checksums). The Exists status is kept so recovery
			// flows still learn the slot was already there.
			sh := s.shard(m.Chunk)
			sh.mu.Lock()
			if sh.m[m.Chunk] == nil {
				sh.m[m.Chunk] = cs
			}
			sh.mu.Unlock()
			return m.Reply(proto.StatusExists)
		}
		return m.Reply(proto.StatusQuota)
	}
	sh := s.shard(m.Chunk)
	sh.mu.Lock()
	sh.m[m.Chunk] = cs
	sh.mu.Unlock()
	return m.Reply(proto.StatusOK)
}

func (s *Server) handleDeleteChunk(m *proto.Message) *proto.Message {
	sh := s.shard(m.Chunk)
	sh.mu.Lock()
	cs := sh.m[m.Chunk]
	delete(sh.m, m.Chunk)
	sh.mu.Unlock()
	if cs == nil {
		return m.Reply(proto.StatusNotFound)
	}
	cs.mu.Lock()
	cs.deleted = true
	cs.bumpLocked() // wake writers queued on the chunk's state
	cs.mu.Unlock()
	if s.jset != nil {
		s.jset.DropChunk(m.Chunk)
	}
	if err := s.store.Delete(m.Chunk); err != nil {
		return m.Reply(proto.StatusError)
	}
	return m.Reply(proto.StatusOK)
}

func (s *Server) handleGetVersion(m *proto.Message) *proto.Message {
	cs := s.chunk(m.Chunk)
	if cs == nil {
		return m.Reply(proto.StatusNotFound)
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	r := m.Reply(proto.StatusOK)
	r.Version = cs.version
	r.View = cs.view
	return r
}

func (s *Server) handleSetView(m *proto.Message) *proto.Message {
	cs := s.chunk(m.Chunk)
	if cs == nil {
		return m.Reply(proto.StatusNotFound)
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if m.View < cs.view {
		return m.Reply(proto.StatusStaleView)
	}
	cs.view = m.View
	if len(m.Payload) > 0 {
		var req CreateChunkReq
		if err := json.Unmarshal(m.Payload, &req); err == nil && req.Backups != nil {
			cs.backups = req.Backups
		}
	}
	r := m.Reply(proto.StatusOK)
	r.View = cs.view
	r.Version = cs.version
	return r
}

// handleRead serves a read from the local replica. Any replica with data at
// least as new as the client's version may serve (§4.1); primaries read
// the SSD store, backups resolve journal extents first.
func (s *Server) handleRead(op *opctx.Op, m *proto.Message) *proto.Message {
	// Validate before allocating: a malformed Length would otherwise size
	// an arbitrary buffer (and only then fail in the store). The bound is
	// the replica's local slot — one segment on RS holders.
	cs := s.chunk(m.Chunk)
	if cs == nil {
		return m.Reply(proto.StatusNotFound)
	}
	if err := validRangeIn(m.Off, int(m.Length), cs.span()); err != nil {
		return m.Reply(proto.StatusError)
	}
	if err := s.ensureCold(op, cs, m.Chunk, m.Off, int(m.Length)); err != nil {
		return m.Reply(proto.StatusError)
	}
	cs.mu.Lock()
	if cs.view != m.View {
		r := m.Reply(proto.StatusStaleView)
		r.View = cs.view
		cs.mu.Unlock()
		return r
	}
	if cs.version < m.Version {
		// We lag the client's committed state: refuse rather than serve
		// stale data; the client will pick another replica or trigger
		// repair.
		r := m.Reply(proto.StatusBehind)
		r.Version = cs.version
		cs.mu.Unlock()
		return r
	}
	ver := cs.version
	cs.mu.Unlock()

	// Leased, not allocated: the response payload rides to the transport,
	// whose Send consumes the lease once the bytes are on the wire.
	buf := bufpool.Get(int(m.Length))
	if err := s.readVerified(op, m.Chunk, buf, m.Off); err != nil {
		bufpool.Put(buf)
		s.reportDeviceFailure(m.Chunk, err)
		if errors.Is(err, util.ErrCorrupt) {
			// Distinguishable integrity failure: the client fails over to
			// another replica instead of retrying a disk that lies.
			return m.Reply(proto.StatusCorrupt)
		}
		return m.Reply(proto.StatusError)
	}
	s.reads.Add(1)
	s.bytesRead.Add(int64(len(buf)))
	r := m.Reply(proto.StatusOK)
	r.Version = ver
	r.Payload = buf
	return r
}

// readData reads the replica's logical content: journal-merged for backups,
// the store for primaries.
func (s *Server) readData(id blockstore.ChunkID, buf []byte, off int64) error {
	if s.jset != nil {
		return s.jset.Read(id, buf, off)
	}
	return s.store.ReadAt(id, buf, off)
}

// readVerified reads [off, off+len(buf)) of a chunk and checks the payload
// against the chunk's sector checksums. A mismatch is settled per sector
// before being declared corruption: the pipelined write path stamps a
// sector's checksum only after its device write returns, so a read racing
// an overlapping write can transiently observe a payload newer than the
// stamped sum (or the reverse). Settling sector by sector matters for
// large reads (scrub probes, clone fetches) over a write-hot region — a
// whole-buffer retry would need every sector consistent at one instant,
// which under a continuous write stream may never happen; each sector on
// its own settles within microseconds, while real bit-rot never verifies.
// A confirmed mismatch counts chunk-checksum-mismatches and comes back
// wrapping util.ErrCorrupt. op may be nil (scrub and recovery paths); with
// an op the device time lands on the usual read stage.
func (s *Server) readVerified(op *opctx.Op, id blockstore.ChunkID, buf []byte, off int64) error {
	stage := opctx.StagePrimarySSD
	if s.jset != nil {
		stage = opctx.StageBackupJournal
	}
	var err error
	if op != nil {
		st := op.Stage(stage)
		err = s.readData(id, buf, off)
		st.Stop()
	} else {
		err = s.readData(id, buf, off)
	}
	if err != nil {
		return err
	}
	if s.store.Sums().Verify(id, off, buf) == nil {
		return nil
	}
	const sectorRereads = 4
	sec := make([]byte, util.SectorSize)
	for so := int64(0); so < int64(len(buf)); so += util.SectorSize {
		if s.store.Sums().Verify(id, off+so, buf[so:so+util.SectorSize]) == nil {
			continue
		}
		var verr error
		for attempt := 0; ; attempt++ {
			if err := s.readData(id, sec, off+so); err != nil {
				return err
			}
			if verr = s.store.Sums().Verify(id, off+so, sec); verr == nil {
				copy(buf[so:], sec)
				break
			}
			if attempt == sectorRereads {
				if s.cfg.Metrics != nil {
					s.cfg.Metrics.Counter(MetricChecksumMismatches).Inc()
				}
				return verr
			}
			// Give an in-flight stamp a moment to land before re-reading.
			s.cfg.Clock.Sleep(20 * time.Microsecond)
		}
	}
	return nil
}

// errPredecessorFailed aborts a write whose overlapping predecessor's apply
// failed: the predecessor's slot will be re-claimed by a retry carrying
// older data, so writing ours first would let that retry overwrite it.
var errPredecessorFailed = errors.New("chunkserver: overlapping predecessor write failed")

// admitWriteLocked runs the §4.2.1 version rules for a write carrying
// version v and, when the write is admitted, claims its version slot and
// registers its extent in the chunk's pending table — the short in-lock
// ordering section of the pipelined write path. It returns exactly one of:
//
//   - pw != nil: the slot is claimed; deps are the pending predecessors the
//     caller must wait out (the overlapping ones) before applying out
//     of lock.
//   - skipLocal: the write is the §4.2.1 duplicate (already applied here);
//     no slot is claimed, the caller still forwards/acks.
//   - resp != nil: the request short-circuits with this reply.
//
// Waits (our slot not yet reserved, or a duplicate of a still-in-flight
// write) are bounded by the op's remaining budget. Called and returns with
// cs.mu held.
func (s *Server) admitWriteLocked(cs *chunkState, op *opctx.Op, m *proto.Message) (pw *pendingWrite, deps []*pendingWrite, skipLocal bool, resp *proto.Message) {
	deadline := s.cfg.Clock.Now().Add(s.opBudget(op, s.cfg.ReplTimeout))
	var stopWait func()
	defer func() {
		if stopWait != nil {
			stopWait()
		}
	}()
	for {
		if cs.deleted {
			return nil, nil, false, m.Reply(proto.StatusNotFound)
		}
		if cs.view != m.View {
			r := m.Reply(proto.StatusStaleView)
			r.View = cs.view
			return nil, nil, false, r
		}
		switch {
		case m.Version+1 == cs.version:
			// Already applied here (retry after a partial failure): skip the
			// local write but still forward/ack (§4.2.1).
			return nil, nil, true, nil
		case m.Version < cs.version:
			r := m.Reply(proto.StatusStaleVersion)
			r.Version = cs.version
			return nil, nil, false, r
		case m.Version == cs.reserved:
			// Our slot is next: claim it.
			pw, deps = s.claimSlotLocked(cs, m)
			return pw, deps, false, nil
		case m.Version < cs.reserved:
			// The slot was already handed out. A failed entry is a retry's
			// to re-claim (its overlapping successors aborted, so nothing
			// newer can be on disk under our extent); a live entry means a
			// duplicate delivery — wait for the original's fate and
			// re-evaluate.
			if p := cs.pending[m.Version]; p == nil || p.failed {
				pw, deps = s.claimSlotLocked(cs, m)
				return pw, deps, false, nil
			}
		default:
			// m.Version > cs.reserved: a predecessor has not arrived yet;
			// wait for reservations to catch up.
		}
		if stopWait == nil {
			stopWait = op.StartStage(opctx.StageReplay)
		}
		if !cs.waitChangeLocked(op, deadline) {
			r := m.Reply(proto.StatusBehind)
			r.Version = cs.version
			return nil, nil, false, r
		}
	}
}

// claimSlotLocked registers m's write in the pending table and collects the
// predecessors it must wait out before touching the device: entries whose
// extents overlap m's. Claiming the next free slot advances the reservation
// cursor and wakes writers queued on it.
func (s *Server) claimSlotLocked(cs *chunkState, m *proto.Message) (*pendingWrite, []*pendingWrite) {
	pw := &pendingWrite{
		version: m.Version,
		off:     m.Off,
		length:  len(m.Payload),
		done:    make(chan struct{}),
	}
	var deps []*pendingWrite
	for slot, p := range cs.pending {
		if slot < m.Version && p.overlaps(m.Off, len(m.Payload)) {
			deps = append(deps, p)
		}
	}
	cs.pending[m.Version] = pw
	if m.Version == cs.reserved {
		cs.reserved++
	}
	cs.bumpLocked()
	return pw, deps
}

// awaitDeps blocks until every predecessor in deps has finished its device
// apply, bounded by the op's budget. A failed dependency aborts the write:
// its slot must stay re-claimable by the retry that carries the missing
// data, and our extent overlaps that retry's.
func (s *Server) awaitDeps(op *opctx.Op, deps []*pendingWrite) error {
	if len(deps) == 0 {
		return nil
	}
	clk := s.cfg.Clock
	t0 := clk.Now()
	deadline := t0.Add(s.opBudget(op, s.cfg.ReplTimeout))
	st := op.Stage(opctx.StageApplyWait)
	defer st.Stop()
	for _, dep := range deps {
		rem := deadline.Sub(clk.Now())
		if rem <= 0 {
			return fmt.Errorf("chunkserver: dependency wait: %w", util.ErrTimeout)
		}
		select {
		case <-dep.done:
		case <-clk.After(rem):
			return fmt.Errorf("chunkserver: dependency wait: %w", util.ErrTimeout)
		case <-op.Done():
			return context.Canceled
		}
		if dep.failed {
			return errPredecessorFailed
		}
	}
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.ObserveLatency(MetricDepWait, clk.Now().Sub(t0))
	}
	return nil
}

// awaitCommit blocks until the chunk's committed version reaches want —
// this write's own apply plus every predecessor's has landed — so acks go
// out strictly in version order and StatusOK at version v still implies
// every write ≤ v is applied. It returns the committed version and whether
// want was reached within the op's budget.
func (s *Server) awaitCommit(cs *chunkState, op *opctx.Op, want uint64) (uint64, bool) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.version >= want {
		return cs.version, true
	}
	deadline := s.cfg.Clock.Now().Add(s.opBudget(op, s.cfg.ReplTimeout))
	st := op.Stage(opctx.StageCommitWait)
	defer st.Stop()
	for cs.version < want && !cs.deleted {
		if !cs.waitChangeLocked(op, deadline) {
			break
		}
	}
	return cs.version, cs.version >= want
}

// handleWrite is the primary write path: apply locally, optionally
// replicate to backups (forward=false under client-directed replication),
// and commit by the all-or-majority-after-timeout rule. The chunk lock is
// held only for slot admission: the SSD write itself runs out of lock,
// concurrently with other same-chunk writes whose extents do not overlap,
// and the ack waits for the committed version to reach this write's slot.
func (s *Server) handleWrite(op *opctx.Op, m *proto.Message, forward bool) *proto.Message {
	if err := validRange(m.Off, len(m.Payload)); err != nil {
		return m.Reply(proto.StatusError)
	}
	cs := s.chunk(m.Chunk)
	if cs == nil {
		return m.Reply(proto.StatusNotFound)
	}
	// Copy-on-write materialization: the extents this write lands on must be
	// local before the write is admitted, or a later demand fetch of the
	// same extent would overwrite newer bytes with the snapshot's.
	if err := s.ensureCold(op, cs, m.Chunk, m.Off, len(m.Payload)); err != nil {
		return m.Reply(proto.StatusError)
	}
	cs.mu.Lock()
	pw, deps, skipLocal, resp := s.admitWriteLocked(cs, op, m)
	if resp != nil {
		cs.mu.Unlock()
		return resp
	}
	backups := cs.backups
	strat := cs.strat
	depth := len(cs.pending)
	cs.mu.Unlock()
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.ObserveValue(MetricPendingWrites, int64(depth))
	}

	// Replication overlaps the local write: the primary starts the
	// fan-out as soon as the plan is ready and performs its own write while
	// the data is in flight to the backups, so the end-to-end latency is
	// max(local, backup), not their sum. Mirroring plans from the payload
	// alone, so its fan-out starts before even the dependency wait; RS
	// parity deltas need the pre-write bytes, so planning waits for
	// overlapping predecessors and reads the old range first.
	doFanout := forward && len(backups) > 0
	var replCh chan bool
	startFanout := func(ships []redundancy.Shipment) {
		replCh = make(chan bool, 1)
		go func() { replCh <- s.replicateShipments(op, backups, m, strat, ships) }()
	}
	if doFanout && !strat.NeedsOldData() {
		ships, err := strat.PlanWrite(m.Off, m.Payload, nil, len(backups))
		if err != nil {
			if !skipLocal {
				cs.applyDone(pw, err)
			}
			return m.Reply(proto.StatusError)
		}
		startFanout(ships)
	}
	if !skipLocal {
		if err := s.awaitDeps(op, deps); err != nil {
			cs.applyDone(pw, err)
			if replCh != nil {
				<-replCh
			}
			cs.mu.Lock()
			ver := cs.version
			cs.mu.Unlock()
			r := m.Reply(proto.StatusBehind)
			r.Version = ver
			return r
		}
		if doFanout && strat.NeedsOldData() {
			old := make([]byte, len(m.Payload))
			err := s.readData(m.Chunk, old, m.Off)
			var ships []redundancy.Shipment
			if err == nil {
				ships, err = strat.PlanWrite(m.Off, m.Payload, old, len(backups))
			}
			if err != nil {
				cs.applyDone(pw, err)
				s.reportDeviceFailure(m.Chunk, err)
				return m.Reply(proto.StatusError)
			}
			cs.cacheShipments(m.Version, ships)
			startFanout(ships)
		}
		st := op.Stage(opctx.StagePrimarySSD)
		err := s.store.WriteAt(m.Chunk, m.Payload, m.Off)
		st.Stop()
		if err == nil {
			s.store.Sums().Stamp(m.Chunk, m.Off, m.Payload)
		}
		cs.applyDone(pw, err)
		if err != nil {
			s.reportDeviceFailure(m.Chunk, err)
			if replCh != nil {
				<-replCh
			}
			return m.Reply(proto.StatusError)
		}
	} else if doFanout && strat.NeedsOldData() {
		// A §4.2.1 duplicate of an RS write cannot recompute its parity
		// deltas — the pre-write bytes are gone — so it resends the cached
		// plan. A plan evicted from the cache means the retry arrived
		// implausibly late: fail it and let recovery settle the stripe.
		ships, ok := cs.cachedShipments(m.Version)
		if !ok {
			return m.Reply(proto.StatusError)
		}
		startFanout(ships)
	}
	s.writes.Add(1)
	s.bytesWritten.Add(int64(len(m.Payload)))

	newVer, committed := s.awaitCommit(cs, op, m.Version+1)
	if !committed {
		if replCh != nil {
			<-replCh
		}
		r := m.Reply(proto.StatusBehind)
		r.Version = newVer
		return r
	}
	if replCh != nil && !<-replCh {
		s.noQuorums.Add(1)
		r := m.Reply(proto.StatusError)
		r.Version = newVer
		return r
	}
	r := m.Reply(proto.StatusOK)
	r.Version = newVer
	return r
}

// replicateShipments fans a write's planned shipments out to the backup
// tier and applies the strategy's commit rule: true when every target acks,
// or when the strategy's degraded rule is met within the commit window —
// a majority of the replica group for mirroring (§4.2.1), at least N
// segment acks for RS(N,M). The window is NOT a server constant: it derives
// from the incoming op's remaining deadline, so the commit rule fires
// relative to the client's budget — only deadline-less ops fall back to the
// configured ReplTimeout.
func (s *Server) replicateShipments(op *opctx.Op, backups []string, m *proto.Message, strat redundancy.Strategy, ships []redundancy.Shipment) bool {
	window := s.opBudget(op, s.cfg.ReplTimeout)
	// The transport recycles the request frame m when the handler returns,
	// and the handler may return (commit decided) while straggler shipments
	// are still applying in the background — so the correlation fields are
	// copied out of m into each branch's own pooled message up front;
	// nothing dispatched below reads through m.
	chunk, view, version := m.Chunk, m.View, m.Version
	fl := s.bcast.Begin(len(ships))
	for _, sh := range ships {
		// Mirror shipments alias the request payload, whose lease the
		// transport server releases when the handler returns — but a
		// shipment may outlive the handler (degraded-commit stragglers keep
		// applying in the background). Each branch therefore carries its
		// own reference, consumed by its one Do. RS shipments own their
		// buffers, making this a no-op.
		bufpool.Retain(sh.Data)
		var flags uint8
		if sh.Xor {
			flags |= proto.FlagXorApply
		}
		if sh.Bump {
			flags |= proto.FlagVersionBump
		}
		req := proto.GetMessage()
		req.Op = proto.OpReplicate
		req.Chunk = chunk
		req.Off = sh.Off
		req.View = view
		req.Version = version
		req.Flags = flags
		req.Seg = uint16(sh.Target)
		req.Payload = sh.Data
		fl.Go(sh.Target, backups[sh.Target], op, window, req)
	}
	defer fl.Finish()
	acks := 0
	var failed []int
	st := op.Stage(opctx.StageReplWait)
	defer st.Stop()
	for done := 1; done <= len(ships); done++ {
		if r := fl.Next(); !r.Err && r.Status == proto.StatusOK {
			acks++
		} else {
			failed = append(failed, r.Target)
		}
		if acks == len(ships) {
			return true
		}
		if len(failed) > 0 && strat.CommitOK(acks, len(backups)) {
			// The outcome is decided: a definitive failure rules out the
			// all-ack commit and the degraded rule already holds, so more
			// results cannot change the decision — only improve durability.
			// Reply now rather than waiting out the stragglers' RPC windows;
			// a dead holder's timeout would otherwise delay every committed
			// write's ack past the client's patience, and the client would
			// misread a committed write as failed. Stragglers keep applying
			// in the background; only the definitive failures are reported.
			//
			// Degraded commit: availability preserved at a transient
			// durability discount (§4.2.1). An RS stripe short a segment has
			// lost real redundancy, so the missing holders are reported for
			// rebuild now; mirrored chunks keep the paper's behaviour and
			// wait for the master's next probe.
			s.degradedCommits.Add(1)
			if strat.Spec().IsRS() {
				for _, t := range failed {
					s.reportFailure(chunk, backups[t])
				}
			}
			return true
		}
		if pending := len(ships) - done; !strat.CommitOK(acks+pending, len(backups)) {
			// Even if every straggler acks, the commit rule cannot be met.
			return false
		}
	}
	return false
}

// handleReplicate is the backup write path: journal small writes, bypass
// for large ones (§3.2). Like the primary path, only slot admission runs
// under the chunk lock: same-chunk appends reach the journal's group-commit
// queue concurrently, so one flush batches a hot chunk's burst instead of
// draining it one record per device write.
//
// RS fan-outs arrive flagged: FlagVersionBump carries no bytes (an
// unaffected data holder advances its version in lockstep), FlagXorApply
// carries a parity delta the holder folds into its current content with a
// read-modify-write. The RMW is safe under concurrency because overlapping
// deltas wait on each other through the pending-write extent machinery, and
// delta application commutes across disjoint admission orders.
func (s *Server) handleReplicate(op *opctx.Op, m *proto.Message) *proto.Message {
	cs := s.chunk(m.Chunk)
	if cs == nil {
		return m.Reply(proto.StatusNotFound)
	}
	bump := m.Flags&proto.FlagVersionBump != 0
	if !bump {
		if err := validRangeIn(m.Off, len(m.Payload), cs.span()); err != nil {
			return m.Reply(proto.StatusError)
		}
		// Same copy-on-write rule as the primary path: the covered extents
		// must be local before this backup applies newer bytes over them.
		if err := s.ensureCold(op, cs, m.Chunk, m.Off, len(m.Payload)); err != nil {
			return m.Reply(proto.StatusError)
		}
	}
	cs.mu.Lock()
	pw, deps, skipLocal, resp := s.admitWriteLocked(cs, op, m)
	if resp != nil {
		cs.mu.Unlock()
		return resp
	}
	depth := len(cs.pending)
	cs.mu.Unlock()
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.ObserveValue(MetricPendingWrites, int64(depth))
	}
	if !skipLocal {
		if err := s.awaitDeps(op, deps); err != nil {
			cs.applyDone(pw, err)
			cs.mu.Lock()
			ver := cs.version
			cs.mu.Unlock()
			r := m.Reply(proto.StatusBehind)
			r.Version = ver
			return r
		}
		var err error
		if !bump {
			data := m.Payload
			var cur []byte
			if m.Flags&proto.FlagXorApply != 0 {
				// Parity RMW: fold the delta into the current parity bytes.
				// The read must verify — folding a delta into rotten parity
				// would launder the rot into every future reconstruction.
				cur = bufpool.Get(len(m.Payload))
				if rerr := s.readVerified(op, m.Chunk, cur, m.Off); rerr != nil {
					bufpool.Put(cur)
					cs.applyDone(pw, rerr)
					s.reportDeviceFailure(m.Chunk, rerr)
					if errors.Is(rerr, util.ErrCorrupt) {
						return m.Reply(proto.StatusCorrupt)
					}
					return m.Reply(proto.StatusError)
				}
				for i := range cur {
					cur[i] ^= m.Payload[i]
				}
				data = cur
			}
			st := op.Stage(opctx.StageBackupJournal)
			err = s.applyBackupWrite(op, m, data)
			st.Stop()
			if err == nil {
				s.store.Sums().Stamp(m.Chunk, m.Off, data)
			}
			if cur != nil {
				// Append/WriteDirect return only after the device write, so
				// nothing references the folded bytes anymore.
				bufpool.Put(cur)
			}
		}
		cs.applyDone(pw, err)
		if err != nil {
			s.reportDeviceFailure(m.Chunk, err)
			return m.Reply(proto.StatusError)
		}
	}
	s.replicates.Add(1)
	s.bytesWritten.Add(int64(len(m.Payload)))

	newVer, committed := s.awaitCommit(cs, op, m.Version+1)
	if !committed {
		r := m.Reply(proto.StatusBehind)
		r.Version = newVer
		return r
	}
	r := m.Reply(proto.StatusOK)
	r.Version = newVer
	return r
}

// applyBackupWrite routes a backup write through the journal or directly to
// the HDD, falling back to a direct write when journals overflow entirely.
// data is the resolved absolute content (an XOR delta already folded in).
// The op rides into the journal so group-commit queue/flush time lands on
// the op's backup-jqueue/backup-jflush stages.
func (s *Server) applyBackupWrite(op *opctx.Op, m *proto.Message, data []byte) error {
	if s.jset == nil {
		// A primary-role server can hold backup replicas in SSD-only
		// deployments (Ursa-SSD mode): plain store write.
		return s.store.WriteAt(m.Chunk, data, m.Off)
	}
	if len(data) <= s.cfg.BypassThreshold {
		err := s.jset.Append(op, m.Chunk, m.Off, data, m.Version+1)
		if errors.Is(err, util.ErrQuota) {
			return s.jset.WriteDirect(m.Chunk, data, m.Off)
		}
		return err
	}
	return s.jset.WriteDirect(m.Chunk, data, m.Off)
}

// handleRepairSince serves incremental repair: the ranges modified after
// m.Version plus their current data (§4.2.1).
func (s *Server) handleRepairSince(m *proto.Message) *proto.Message {
	cs := s.chunk(m.Chunk)
	if cs == nil {
		return m.Reply(proto.StatusNotFound)
	}
	cs.mu.Lock()
	mods, ok := cs.lite.Since(m.Version)
	ver := cs.version
	cs.mu.Unlock()
	if !ok {
		// History evicted: the whole chunk must be transferred instead.
		r := m.Reply(proto.StatusFallback)
		r.Version = ver
		return r
	}
	out := make([]repairMod, 0, len(mods))
	for _, mod := range mods {
		buf := make([]byte, mod.Len)
		// Verified read: serving unverified bytes here would launder local
		// bit-rot into a healthy replica through the repair path.
		if err := s.readVerified(nil, m.Chunk, buf, mod.Off); err != nil {
			s.reportDeviceFailure(m.Chunk, err)
			if errors.Is(err, util.ErrCorrupt) {
				return m.Reply(proto.StatusCorrupt)
			}
			return m.Reply(proto.StatusError)
		}
		out = append(out, repairMod{Mod: mod, Data: buf})
	}
	s.repairCount.Add(1)
	r := m.Reply(proto.StatusOK)
	r.Version = ver
	r.Payload = encodeRepair(out)
	return r
}

// handleApplyRepair installs repair data and adopts the source's version
// (carried in m.Version).
func (s *Server) handleApplyRepair(m *proto.Message) *proto.Message {
	cs := s.chunk(m.Chunk)
	if cs == nil {
		return m.Reply(proto.StatusNotFound)
	}
	mods, err := decodeRepair(m.Payload)
	if err != nil {
		return m.Reply(proto.StatusError)
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for _, mod := range mods {
		if mod.Version <= cs.version {
			continue // already have it
		}
		var werr error
		if s.jset != nil {
			werr = s.jset.WriteDirect(m.Chunk, mod.Data, mod.Off)
		} else {
			werr = s.store.WriteAt(m.Chunk, mod.Data, mod.Off)
		}
		if werr != nil {
			return m.Reply(proto.StatusError)
		}
		s.store.Sums().Stamp(m.Chunk, mod.Off, mod.Data)
		cs.lite.Record(mod.Version, mod.Off, len(mod.Data))
		s.bytesWritten.Add(int64(len(mod.Data)))
	}
	cs.adoptVersionLocked(m.Version)
	s.repairCount.Add(1)
	r := m.Reply(proto.StatusOK)
	r.Version = cs.version
	return r
}

// handleFetchChunk serves raw chunk data for recovery transfers. Backups
// resolve journal extents so the fetched data reflects all appended writes
// (§6.2's recovery "from both backup HDDs and SSD journals").
func (s *Server) handleFetchChunk(op *opctx.Op, m *proto.Message) *proto.Message {
	cs := s.chunk(m.Chunk)
	if cs == nil {
		return m.Reply(proto.StatusNotFound)
	}
	if err := validRangeIn(m.Off, int(m.Length), cs.span()); err != nil {
		return m.Reply(proto.StatusError)
	}
	// Recovery transfers must carry real bytes: a replacement replica is
	// created without cold refs, so the fetched range is materialized here
	// first and the clone leaves the source fully backed.
	if err := s.ensureCold(op, cs, m.Chunk, m.Off, int(m.Length)); err != nil {
		return m.Reply(proto.StatusError)
	}
	buf := bufpool.Get(int(m.Length))
	// Verified read: a recovery clone that copied rotten bytes would
	// propagate corruption to the replacement replica.
	if err := s.readVerified(nil, m.Chunk, buf, m.Off); err != nil {
		bufpool.Put(buf)
		s.reportDeviceFailure(m.Chunk, err)
		if errors.Is(err, util.ErrCorrupt) {
			return m.Reply(proto.StatusCorrupt)
		}
		return m.Reply(proto.StatusError)
	}
	cs.mu.Lock()
	ver := cs.version
	cs.mu.Unlock()
	r := m.Reply(proto.StatusOK)
	r.Version = ver
	r.Payload = buf
	return r
}

// CloneChunkReq is the JSON payload of OpCloneChunk.
type CloneChunkReq struct {
	// Source is the address of the replica to copy from.
	Source string `json:"source"`
	// Spec and Sources drive an RS reconstruction clone: when Sources is
	// non-empty, the chunk is rebuilt stripe by stripe from N surviving
	// segment holders (the primary is gone) instead of copied from Source.
	Spec    redundancy.Spec `json:"spec,omitempty"`
	Sources []PieceSource   `json:"sources,omitempty"`
}

// cloneFetchSize is the transfer granularity of recovery copies.
const cloneFetchSize = 1 * util.MiB

// handleCloneChunk pulls the whole chunk from a source replica, installing
// its data and version locally. The master invokes it on newly allocated
// replicas during failure recovery (§4.2.2); the transfer is what Fig 12
// measures.
func (s *Server) handleCloneChunk(op *opctx.Op, m *proto.Message) *proto.Message {
	var req CloneChunkReq
	if err := json.Unmarshal(m.Payload, &req); err != nil {
		return m.Reply(proto.StatusError)
	}
	if len(req.Sources) > 0 {
		return s.cloneFromSegments(op, m, req)
	}
	cs := s.chunk(m.Chunk)
	if cs == nil {
		return m.Reply(proto.StatusNotFound)
	}
	cli, err := s.peers.Get(req.Source)
	if err != nil {
		return m.Reply(proto.StatusError)
	}
	vresp, err := cli.Do(op, &proto.Message{Op: proto.OpGetVersion, Chunk: m.Chunk},
		s.opBudget(op, s.cfg.ReplTimeout))
	if err != nil || vresp.Status != proto.StatusOK {
		return m.Reply(proto.StatusError)
	}
	srcVersion := vresp.Version

	cs.mu.Lock()
	defer cs.mu.Unlock()
	// Pipeline the transfer: several fetches in flight while earlier
	// pieces write locally, so one chunk's recovery is bounded by the
	// slower of source disk, network, and local disk — not their sum. The
	// transfer covers the local slot: one segment when this replica is an
	// RS holder cloning from its predecessor, a full chunk otherwise.
	span := cs.span()
	const clonePipeline = 4
	type piece struct {
		off  int64
		call *transport.PendingCall
	}
	var inflight []piece
	issue := func(off int64) {
		inflight = append(inflight, piece{off, cli.Start(&proto.Message{
			Op:     proto.OpFetchChunk,
			Chunk:  m.Chunk,
			Off:    off,
			Length: cloneFetchSize,
		})})
	}
	// An early exit abandons the calls still in flight so their responses'
	// payload leases are released whenever they land.
	abandon := func() {
		for _, p := range inflight {
			p.call.Abandon()
		}
	}
	next := int64(0)
	for ; next < int64(clonePipeline)*cloneFetchSize && next < span; next += cloneFetchSize {
		issue(next)
	}
	for len(inflight) > 0 {
		p := inflight[0]
		inflight = inflight[1:]
		fresp, ok := <-p.call.Done()
		if !ok || fresp.Status != proto.StatusOK {
			if ok {
				bufpool.Put(fresp.Payload)
			} else {
				s.peers.Drop(req.Source, cli)
			}
			abandon()
			return m.Reply(proto.StatusError)
		}
		if next < span {
			issue(next)
			next += cloneFetchSize
		}
		var werr error
		if s.jset != nil {
			werr = s.jset.WriteDirect(m.Chunk, fresp.Payload, p.off)
		} else {
			werr = s.store.WriteAt(m.Chunk, fresp.Payload, p.off)
		}
		if werr != nil {
			bufpool.Put(fresp.Payload)
			abandon()
			return m.Reply(proto.StatusError)
		}
		s.store.Sums().Stamp(m.Chunk, p.off, fresp.Payload)
		s.bytesWritten.Add(int64(len(fresp.Payload)))
		bufpool.Put(fresp.Payload)
	}
	cs.adoptVersionLocked(srcVersion)
	if m.View > cs.view {
		cs.view = m.View
	}
	s.cloneCount.Add(1)
	r := m.Reply(proto.StatusOK)
	r.Version = cs.version
	return r
}

// handleRepairFrom pulls incremental repair from a source replica: ask for
// the mods since our version (journal lite), apply them; when the source's
// history is garbage-collected, fall back to a full chunk clone (§4.2.1).
func (s *Server) handleRepairFrom(op *opctx.Op, m *proto.Message) *proto.Message {
	var req CloneChunkReq
	if err := json.Unmarshal(m.Payload, &req); err != nil {
		return m.Reply(proto.StatusError)
	}
	cs := s.chunk(m.Chunk)
	if cs == nil {
		return m.Reply(proto.StatusNotFound)
	}
	cs.mu.Lock()
	myVersion := cs.version
	cs.mu.Unlock()

	resp, err := s.peers.Do(op, req.Source, &proto.Message{
		Op:      proto.OpRepairSince,
		Chunk:   m.Chunk,
		Version: myVersion,
	}, s.opBudget(op, 10*s.cfg.ReplTimeout))
	if err != nil {
		return m.Reply(proto.StatusError)
	}
	switch resp.Status {
	case proto.StatusOK:
		apply := &proto.Message{
			ID:      m.ID,
			Op:      proto.OpApplyRepair,
			Chunk:   m.Chunk,
			View:    m.View,
			Version: resp.Version,
			Payload: resp.Payload,
		}
		r := s.handleApplyRepair(apply)
		bufpool.Put(resp.Payload) // applied synchronously; the lease ends here
		return r
	case proto.StatusFallback:
		return s.handleCloneChunk(op, m) // same payload shape: {source}
	default:
		return m.Reply(proto.StatusError)
	}
}

// Upgrade performs the graceful hot upgrade of §5.2: stop admitting
// requests, wait for in-flight ones, switch to the "new process"
// (generation bump), and resume. Real URSA forks a new binary; the
// observable contract — no failed requests, brief pause, state preserved —
// is identical.
func (s *Server) Upgrade() {
	s.upMu.Lock()
	if s.draining {
		s.upMu.Unlock()
		return // an upgrade is already in progress
	}
	s.draining = true
	for s.inflight > 1 { // >1: the OpUpgrade handler itself
		s.upCond.Wait()
	}
	s.upGen.Add(1)
	s.draining = false
	s.upCond.Broadcast()
	s.upMu.Unlock()
}

// validRange checks a sector-aligned in-chunk range.
func validRange(off int64, n int) error {
	return validRangeIn(off, n, util.ChunkSize)
}

// validRangeIn checks a sector-aligned range against a replica's local slot
// span — a full chunk, or one segment on RS holders.
func validRangeIn(off int64, n int, span int64) error {
	if off < 0 || n <= 0 || off%util.SectorSize != 0 || n%util.SectorSize != 0 ||
		off+int64(n) > span {
		return fmt.Errorf("chunkserver: bad range [%d,%d) of %d: %w",
			off, off+int64(n), span, util.ErrOutOfRange)
	}
	return nil
}
