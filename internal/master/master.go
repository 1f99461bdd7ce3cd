package master

import (
	"encoding/json"
	"errors"
	"sync"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/coldtier"
	"ursa/internal/metrics"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/transport"
	"ursa/internal/util"
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
	// RPCTimeout bounds the master's own calls to chunk servers.
	RPCTimeout time.Duration
	// HybridMode places backups on HDD servers; when false (SSD-only mode,
	// the paper's Ursa-SSD configuration) backups are placed on SSD
	// servers too.
	HybridMode bool
	// Metrics receives recovery observability: the chunk-recoveries counter
	// and the chunk-recovery-duration histogram (nil: a registry of its own).
	Metrics *metrics.Registry
	// Peers lists every master endpoint, including this master's own Addr,
	// in promotion-priority order (index = rank; Peers[0] bootstraps as
	// primary). Empty means [Addr]: a lone master is a set of one, the
	// primary at epoch 1 that logs every commit and ships to nobody.
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
	if len(c.Peers) == 0 {
		c.Peers = []string{c.Addr}
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
}

// Master is the global coordinator.
type Master struct {
	cfg Config

	mu sync.Mutex
	// st is the replicated metadata. Only (*state).apply writes its fields
	// (see state.go); everything below is deliberately not replicated.
	st *state

	// leaseEnds is when each held lease ends: the primary's soft state
	// (guarded by mu), set by every grant and renewal and on promotion.
	leaseEnds map[uint32]time.Time

	// inflightFlushes counts snapshot flushes between their segment-range
	// allocation and metadata record, during which GC must not judge fresh
	// segments dead. It is primary-local soft state (guarded by mu): a
	// failover loses it, which at worst delays a GC pass.
	inflightFlushes int

	peers *transport.Peers

	// recMu guards recovering: one in-flight view change per chunk.
	// Reporters of an already-recovering chunk wait for that recovery and
	// share its outcome instead of starting a duplicate clone.
	recMu      sync.Mutex
	recovering map[uint64]chan struct{}

	// Replication role and log (guarded by mu; see replication.go).
	role      Role
	lastHeard time.Time // last batch from the primary, or promise to a candidate
	log       []entry
	// ships is the primary's record of each standby, shipTo its address and
	// shipKick the wake-up of its shipper, all in Peers order.
	ships    []Ship
	shipTo   []string
	shipKick []chan struct{}
	// progress is closed, and replaced, when a standby acknowledges or the
	// role changes while a handler awaits a majority (awaited).
	progress  chan struct{}
	awaited   bool
	closedCh  chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	// reconcileAt is when the primary's next reconcile pass is due.
	reconcileAt time.Time

	coldCl *coldtier.Client // the object store, for the pass's GC (coldgc.go)

	rpc *transport.Server
}

// New creates a master and starts its replication machinery: a log shipper
// toward every other endpoint and the promotion monitor. Close stops them.
func New(cfg Config) *Master {
	cfg.fillDefaults()
	m := &Master{
		cfg:        cfg,
		st:         newState(),
		leaseEnds:  make(map[uint32]time.Time),
		peers:      transport.NewPeers(cfg.Dialer, cfg.Clock),
		recovering: make(map[uint64]chan struct{}),
	}
	m.peers.SetRedial(backoff.Policy{Base: cfg.RPCTimeout / 40, Cap: cfg.RPCTimeout / 4}, 2)
	m.initReplication()
	if cfg.ObjstoreAddr != "" {
		m.coldCl = coldtier.NewClient(m.peers, cfg.ObjstoreAddr)
	}
	return m
}

// Serve starts the master's RPC service.
func (m *Master) Serve(l transport.Listener) { m.rpc = transport.Serve(l, m.Handle) }

// Close stops the RPC service and the replication goroutines.
func (m *Master) Close() {
	m.stopReplication()
	if m.rpc != nil {
		m.rpc.Close()
	}
	m.peers.CloseAll()
}

// AddServer registers a chunk server whose store may give capacity bytes to
// slots (Go API; MOpRegister is the RPC form). Registering a known address
// again changes nothing.
func (m *Master) AddServer(addr, machine string, ssd bool, capacity int64) {
	_, _ = m.register(RegisterReq{Addr: addr, Machine: machine, SSD: ssd, Capacity: capacity}) // refused only on a standby
}

func (m *Master) register(req RegisterReq) (any, error) {
	if err := m.lockPrimary("register " + req.Addr); err != nil {
		return nil, err
	}
	for _, s := range m.st.servers {
		if s.Addr == req.Addr {
			m.mu.Unlock()
			return nil, nil
		}
	}
	return nil, m.commitUnlock(entry{AddServer: &req})
}

// commitUnlock commits e (m.mu held), lets go of m.mu and awaits a majority:
// the commit of a handler with nothing left to do under the lock.
func (m *Master) commitUnlock(e entry) error {
	at, err := m.commitLocked(e)
	m.mu.Unlock()
	if err != nil {
		return err
	}
	return m.await(at)
}

// heed takes in an answer to the master — from a chunk server or another
// master — and deposes this master on the spot when it is a StatusStaleEpoch
// refusal: the sender has witnessed a newer primary, whose epoch the reply
// header carries.
func (m *Master) heed(resp *proto.Message) {
	if resp.Status == proto.StatusStaleEpoch {
		m.mu.Lock()
		m.stepDownLocked(resp.Epoch, "")
		m.mu.Unlock()
	}
}

// serverQueue is one server's share of a control-plane fan-out: the messages
// for it, which it is sent one at a time, in order.
type serverQueue struct {
	addr string
	msgs []*proto.Message
}

// fanOut is the master's one way to send, to one server or to many. It sends
// the queues as one flight with one window for everything (RPCTimeout for
// commands; a fill or a flush takes a multiple of it, a log batch
// PrimacyTTL/2, promotion's probe and fence PrimacyTTL/4): every queue's first
// message at the start, a queue's next when its previous has been answered,
// so the round trips a command costs count the messages of its longest queue,
// not its servers or its chunks, and what one server must do in order —
// create a slot, then fill it — is one queue. Messages are stamped with the
// primacy epoch and every answer goes through heed; answered, when non-nil,
// then reads the answer (which it must not keep) and says whether that
// queue's next message may go. acked[q] is how many of queue q's messages
// were answered: the rest, sent or not, reached nobody as far as the master
// knows.
func (m *Master) fanOut(window time.Duration, queues []serverQueue, answered func(q int, resp *proto.Message) bool) (acked []int) {
	total := 0
	for _, q := range queues {
		total += len(q.msgs)
	}
	acked = make([]int, len(queues))
	op := opctx.New(m.cfg.Clock, window)
	defer op.Release()
	fl := m.peers.Begin(op, total, 0)
	defer fl.Finish()
	epoch, out := m.Epoch(), 0
	send := func(q int) {
		if next := acked[q]; next < len(queues[q].msgs) {
			msg := queues[q].msgs[next]
			msg.Epoch = epoch
			fl.Go(q, queues[q].addr, msg)
			out++
		}
	}
	for q := range queues {
		send(q)
	}
	for out > 0 {
		q, resp, ok := fl.NextReply()
		if !ok {
			break // the window is spent: whatever is still out stays unanswered
		}
		out--
		if resp == nil {
			continue // unreachable: the rest of its queue is not sent
		}
		acked[q]++
		m.heed(resp)
		goOn := answered == nil || answered(q, resp)
		bufpool.Put(resp.Payload)
		proto.Recycle(resp)
		if goOn {
			send(q)
		}
	}
	return acked
}

// replicaRef names one replica of a vdisk: its chunk's index and its position
// in that chunk's replica list.
type replicaRef struct{ chunk, pos int }

// byServer starts a per-vdisk command's queues: one per server that holds a
// replica, in order of first appearance, and beside each the replicas it
// holds, in chunk-index order, for the caller to make its messages of.
func byServer(chunks []ChunkMeta) (queues []serverQueue, held [][]replicaRef) {
	at := make(map[string]int)
	for i, cm := range chunks {
		for pos, r := range cm.Replicas {
			q, seen := at[r.Addr]
			if !seen {
				q, at[r.Addr] = len(queues), len(queues)
				queues, held = append(queues, serverQueue{addr: r.Addr}), append(held, nil)
			}
			held[q] = append(held[q], replicaRef{i, pos})
		}
	}
	return queues, held
}

// command builds a master command about one chunk; body, when non-nil, is its
// JSON payload.
func command(op proto.Op, id blockstore.ChunkID, view, version uint64, body any) *proto.Message {
	payload, _ := jsonBody(body) // strings and numbers: cannot fail
	return &proto.Message{Op: op, Chunk: id, View: view, Version: version, Payload: payload}
}

// Handle serves master RPCs. A StatusStaleEpoch refusal carries the epoch
// that fenced the sender in its header, as a chunk server's does.
func (m *Master) Handle(msg *proto.Message) *proto.Message {
	res := m.dispatch(msg)
	payload, err := jsonBody(res.body)
	if err != nil {
		return msg.Reply(proto.StatusError)
	}
	r := msg.Reply(res.status)
	if res.status == proto.StatusStaleEpoch {
		r.Epoch = res.epoch
	}
	r.Payload = payload
	return r
}

// jsonBody encodes the body of a request or reply; nil is no payload.
func jsonBody(body any) ([]byte, error) {
	if body == nil {
		return nil, nil
	}
	return json.Marshal(body)
}

// dispatch routes one RPC to the function that serves it. Replication
// control traffic (MOpReplicateLog, MOpMasterInfo) is served in any role;
// every other op is a client/chunkserver metadata op that only the primary
// may serve — standbys, and a primary whose primacy lapsed, answer
// StatusNotPrimary with a redirect hint. The check here is what keeps the
// read-only ops off a standby; every mutating op re-checks primacy under m.mu
// (lockPrimary, commitLocked), so a deposition racing an in-flight request
// cannot change a standby's state.
func (m *Master) dispatch(msg *proto.Message) jsonResult {
	switch msg.Op {
	case proto.MOpReplicateLog:
		return serve(m, msg, m.replicateLog)
	case proto.MOpMasterInfo:
		return m.masterInfo(msg)
	}
	if !m.IsPrimary() {
		return m.failure(util.ErrNotPrimary)
	}
	switch msg.Op {
	case proto.MOpCreateVDisk:
		return serve(m, msg, m.CreateVDisk)
	case proto.MOpOpenVDisk:
		return serve(m, msg, m.openVDisk)
	case proto.MOpRenewLease:
		return serve(m, msg, m.renewLease)
	case proto.MOpCloseVDisk:
		return serve(m, msg, m.closeVDisk)
	case proto.MOpDeleteVDisk:
		return serve(m, msg, m.deleteVDisk)
	case proto.MOpGetVDisk:
		return serve(m, msg, m.getVDisk)
	case proto.MOpReportFailure:
		return serve(m, msg, func(r ReportFailureReq) (*ChunkMeta, error) {
			return m.RecoverChunk(r.VDisk, r.ChunkIndex, r.FailedAddr, r.View)
		})
	case proto.MOpRegister:
		return serve(m, msg, m.register)
	case proto.MOpSnapshot:
		return serve(m, msg, func(r SnapshotReq) (*SnapshotMeta, error) { return m.SnapshotVDisk(r.VDisk, r.Name) })
	case proto.MOpCloneFromSnapshot:
		return serve(m, msg, m.CloneFromSnapshot)
	case proto.MOpDeleteSnapshot:
		return serve(m, msg, func(r SnapshotReq) (any, error) { return nil, m.DeleteSnapshot(r.Name) })
	default:
		return jsonResult{status: proto.StatusError}
	}
}

// jsonResult pairs a status with a JSON-encodable body (nil: no payload) and,
// for a StatusStaleEpoch refusal, the epoch that out-ranks the sender.
type jsonResult struct {
	status proto.Status
	body   any
	epoch  uint64
}

// serve decodes msg's payload into fn's request type, runs fn, and turns
// its outcome into the wire result. A function with nothing to return
// declares an `any` response and returns nil.
func serve[Req, Resp any](m *Master, msg *proto.Message, fn func(Req) (Resp, error)) jsonResult {
	var req Req
	if err := json.Unmarshal(msg.Payload, &req); err != nil {
		return jsonResult{status: proto.StatusError}
	}
	resp, err := fn(req)
	if err != nil {
		return m.failure(err)
	}
	return jsonResult{status: proto.StatusOK, body: resp}
}

// failure maps an error to its wire result. The two refusals that tell the
// caller where to go next carry it: a standby's redirect hint in the body, and
// the epoch that out-ranks a stale primary's log batch in the header.
func (m *Master) failure(err error) jsonResult {
	switch {
	case errors.Is(err, util.ErrNotPrimary):
		m.mu.Lock()
		defer m.mu.Unlock()
		return jsonResult{status: proto.StatusNotPrimary, body: m.masterInfoLocked()}
	case errors.Is(err, util.ErrStaleEpoch):
		return jsonResult{status: proto.StatusStaleEpoch, epoch: m.Epoch()}
	case errors.Is(err, util.ErrExists):
		return jsonResult{status: proto.StatusExists}
	case errors.Is(err, util.ErrNotFound):
		return jsonResult{status: proto.StatusNotFound}
	case errors.Is(err, util.ErrQuota):
		return jsonResult{status: proto.StatusQuota}
	case errors.Is(err, util.ErrLeaseHeld):
		return jsonResult{status: proto.StatusLeaseHeld}
	default:
		return jsonResult{status: proto.StatusError}
	}
}
