package chunkserver

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/clock"
	"ursa/internal/journal"
	"ursa/internal/metrics"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// Config parameterizes a chunk server.
type Config struct {
	// Addr is the server's address on its transport fabric.
	Addr string
	// Clock supplies time.
	Clock clock.Clock
	// Dialer reaches peer servers for replication and recovery.
	Dialer transport.Dialer
	// ReplTimeout is the commit-rule window (§4.2.1) for operations that
	// arrive WITHOUT a propagated deadline — background work, sent on a
	// deadline-less op. Client-initiated ops never use it: their
	// replication budget derives from the op's remaining deadline
	// (see opBudget), so the majority rule fires relative to the client's
	// actual budget.
	ReplTimeout time.Duration
	// Metrics receives per-stage latency observations for every op this
	// server services (shared cluster-wide by core; nil: a registry of its
	// own).
	Metrics *metrics.Registry
	// BypassThreshold is Tj: backup writes larger than this skip the
	// journal (§3.2). 0 means the 64 KB paper default.
	BypassThreshold int
	// MasterAddrs lists the master endpoints (one entry for a single
	// master). Device failures are reported there (MOpReportFailure) so the
	// master runs the §4.2.2 view change that re-replicates the chunk
	// elsewhere, through one transport.MasterSession. Empty disables the
	// reports.
	MasterAddrs []string
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
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
}

// liteCap bounds a chunk replica's journal-lite history (§4.2.1): a replica
// that fell further behind than this many writes is repaired by a clone.
const liteCap = 4096

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
	Reads, BytesWritten int64
	Repairs, Clones     int64
	UpgradeGen          int64
}

// Server is one chunk-server process.
type Server struct {
	cfg   Config
	store *blockstore.Store
	// jset fronts the store with journals on a backup server; nil on a
	// primary. Only the local-storage methods of data.go choose between it
	// and the store.
	jset *journal.Set

	// chunks is the chunk registry, striped by chunk ID hash: every request
	// resolves its chunkState here, so one registry mutex would serialize
	// the whole data path at QD32.
	chunks [chunkShards]chunkShard
	peers  *transport.Peers
	master *transport.MasterSession

	// upMu/upCond gate request admission during a hot upgrade (§5.2):
	// Handle parks on the condvar while draining, Upgrade parks until the
	// in-flight count drains — no poll loops, no burnt (simulated) time.
	upMu     sync.Mutex
	upCond   *sync.Cond
	inflight int
	draining bool
	upGen    atomic.Int64

	reads, bytesWritten        metrics.Counter
	repairCount, cloneCount    metrics.Counter
	degradedCommits, noQuorums metrics.Counter

	// masterEpoch is the newest master primacy epoch this server has
	// witnessed; commands stamped with an older one are rejected
	// (StatusStaleEpoch) — the fence that stops a deposed master.
	masterEpoch atomic.Uint64

	rpc *transport.Server
}

// New creates a chunk server over store. A non-nil jset makes it a backup
// server (HDD store behind journals); nil makes it a primary.
func New(cfg Config, store *blockstore.Store, jset *journal.Set) *Server {
	cfg.fillDefaults()
	s := &Server{
		cfg:    cfg,
		store:  store,
		jset:   jset,
		peers:  transport.NewPeers(cfg.Dialer, cfg.Clock),
		master: transport.NewMasterSession(cfg.Dialer, cfg.Clock, cfg.MasterAddrs, cfg.ReplTimeout, cfg.Metrics),
	}
	for i := range s.chunks {
		s.chunks[i].m = make(map[blockstore.ChunkID]*chunkState)
	}
	s.upCond = sync.NewCond(&s.upMu)
	if jset != nil {
		// A journal dying is handled inside the set (re-route, then bypass)
		// and needs no view change; a PARKED replay means this chunk's data
		// cannot reach the backup disk at all — ask the master to
		// re-replicate it elsewhere.
		jset.OnFault(func(id blockstore.ChunkID, _ error) { s.reportDeviceFailure(id) })
	}
	return s
}

// Serve starts handling requests on l. It returns immediately.
func (s *Server) Serve(l transport.Listener) {
	s.rpc = transport.Serve(l, s.Handle, transport.WithQueueMetrics(s.cfg.Metrics))
}

// Close stops the RPC server, the master session and the journal replayer.
func (s *Server) Close() {
	if s.rpc != nil {
		s.rpc.Close()
	}
	s.master.Close()
	s.peers.CloseAll()
	if s.jset != nil {
		s.jset.Close()
	}
}

// Master returns the server's session with the master service, for callers
// that speak for the server (its daemon's registration).
func (s *Server) Master() *transport.MasterSession { return s.master }

// Addr returns the configured address.
func (s *Server) Addr() string { return s.cfg.Addr }

// StoreUsedBytes returns the physical bytes held by this server's chunk
// slots — what the erasure-coding bench sums into storage overhead.
func (s *Server) StoreUsedBytes() int64 { return s.store.UsedBytes() }

// Stats returns an activity snapshot.
func (s *Server) Stats() Stats {
	return Stats{
		Reads:        s.reads.Load(),
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

// Handle dispatches one request; it is the transport.Handler. The server
// has two interfaces and Handle tries them in turn: data (handleData — what
// clients and peer replicas send, fenced per chunk by view and version) and
// admin (handleAdmin — what the master sends, fenced by its primacy epoch).
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
		if s.draining && s.inflight == 0 {
			s.upCond.Broadcast()
		}
		s.upMu.Unlock()
	}()

	// Rebuild the request context the message belongs to: same op ID, the
	// sender's remaining budget re-anchored on our clock. Every wait below
	// derives its window from this op, never from a fixed constant. It is
	// released once the reply exists: every flight begun on its behalf has
	// Finished by then, so nothing else holds it.
	op := opctx.FromWire(s.cfg.Clock, m.OpID, m.Budget).WithSink(s.cfg.Metrics)
	r := s.handleData(op, m)
	if r == nil {
		r = s.handleAdmin(op, m)
	}
	op.Release()
	return r
}

// opBudget derives the window this server may spend waiting on op's behalf
// (backup acks, version-slot queueing, recovery pulls). Ops carrying a
// deadline get 3/4 of the remaining budget — the rest is reserved for the
// response's return trip and the caller's bookkeeping, so the §4.2.1
// majority rule fires while the client is still listening. Deadline-less
// ops (background work) fall back to the configured window.
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

// Upgrade performs the graceful hot upgrade of §5.2: stop admitting
// requests, wait for in-flight ones, switch to the "new process"
// (generation bump), and resume. Real URSA forks a new binary; the
// observable contract — no failed requests, brief pause, state preserved —
// is identical. It is called from outside every request (the daemon's
// SIGHUP): a handler calling it would wait for itself.
func (s *Server) Upgrade() {
	s.upMu.Lock()
	if s.draining {
		s.upMu.Unlock()
		return // an upgrade is already in progress
	}
	s.draining = true
	for s.inflight > 0 {
		s.upCond.Wait()
	}
	s.upGen.Add(1)
	s.draining = false
	s.upCond.Broadcast()
	s.upMu.Unlock()
}

// replyAt answers m with status at the given replica version.
func replyAt(m *proto.Message, status proto.Status, version uint64) *proto.Message {
	r := m.Reply(status)
	r.Version = version
	return r
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
