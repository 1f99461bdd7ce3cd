package master

import (
	"encoding/json"
	"fmt"
	"time"

	"ursa/internal/proto"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// Master replication: the primary ships an ordered metadata op log (vdisk
// create/delete, lease grant/release/takeover, server registration,
// RecoverChunk view installs) to every hot standby over the ordinary
// transport; a lease renewal ships nothing (grantLocked). Primacy
// is a clock lease: the primary heartbeats (an empty log batch) every
// PrimacyTTL/4, and a standby that hears nothing for its rank-staggered
// timeout probes the other masters and, if none claims primacy at a
// current-or-newer epoch, bumps the epoch and takes over. Safety does not
// rest on the lease alone — every chunkserver-bound command carries the
// epoch and chunkservers reject anything older than the newest epoch they
// have witnessed (StatusStaleEpoch), so a deposed master that un-partitions
// is fenced at the edges before it can corrupt placement. This is
// primary/backup log shipping, not consensus: an acked client op whose log
// entry had not yet reached the promoted standby is lost (the shipper is
// kicked on every append, so the window is one RPC), and the lease
// reclaim-on-renew rule below papers over exactly that window for leases.

const (
	// MetricMasterPromotions counts standby-to-primary promotions.
	MetricMasterPromotions = "master-promotions"
	// MetricMasterReplayRefused counts shipped batches of which a standby
	// took nothing although their first entry was the next in its sequence:
	// it could not decode that entry, or apply refused it — the standby's
	// state has diverged or it runs another build. Such a standby stays where
	// it is (every heartbeat re-sends the batch and counts again) and, if
	// promoted, serves the log prefix it holds.
	MetricMasterReplayRefused = "master-replay-refused"
)

// shipBatchMax caps the entries one MOpReplicateLog carries, so that a dead
// or freshly joined standby costs a bounded copy, encode and RPC per attempt
// however long the log is. A standby that acks a full batch is sent the next
// one at once; the ack's Applied paces the rest.
const shipBatchMax = 256

// ReplicateLogReq is the payload of MOpReplicateLog: a batch of entries
// (empty = heartbeat) from the primary From at Epoch.
type ReplicateLogReq struct {
	Epoch   uint64     `json:"epoch"`
	From    string     `json:"from"`
	Entries entryBatch `json:"entries,omitempty"`
}

// ReplicateLogResp acknowledges a batch with the receiver's epoch and last
// applied sequence; the shipper rewinds its cursor to Applied, so a
// freshly (re)joined standby is caught up by full-log replay.
type ReplicateLogResp struct {
	Epoch   uint64 `json:"epoch"`
	Applied uint64 `json:"applied"`
}

// MasterInfoResp is the payload of MOpMasterInfo and the body of every
// StatusNotPrimary redirect, defined beside the master session that reads
// redirects.
type MasterInfoResp = transport.MasterInfoResp

// rank returns this master's promotion priority: its index in cfg.Peers.
func (m *Master) rank() int { return peerRank(m.cfg.Peers, m.cfg.Addr) }

// initReplication sets the initial role and starts the shipper and monitor
// goroutines. Rank 0 bootstraps as the primary at epoch 1 unless it joins
// an already-running cluster (JoinStandby: a healed master must discover
// the current epoch rather than resurrect epoch 1). A lone master is rank 0
// of a set of one: it ships to nobody, and its monitor finds it primary.
func (m *Master) initReplication() {
	m.closedCh = make(chan struct{})
	m.shipKick = make(map[string]chan struct{})
	m.lastHeard = m.cfg.Clock.Now()
	m.primaryAddr = m.cfg.Peers[0]
	if m.rank() == 0 && !m.cfg.JoinStandby {
		m.primary = true
		m.primaryAddr = m.cfg.Addr
		m.epoch = 1
		m.reconcileAt = m.lastHeard.Add(reconcileEvery)
	}
	for _, p := range m.cfg.Peers {
		if p == m.cfg.Addr {
			continue
		}
		wake := make(chan struct{}, 1)
		m.shipKick[p] = wake
		m.wg.Add(1)
		go m.shipLoop(p, wake)
	}
	m.wg.Add(1)
	go m.monitorLoop()
}

// stopReplication terminates the background goroutines (idempotent).
func (m *Master) stopReplication() {
	m.closeOnce.Do(func() { close(m.closedCh) })
	m.wg.Wait()
}

// IsPrimary reports whether this master currently holds primacy.
func (m *Master) IsPrimary() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.primary
}

// Addr returns the address this master serves at.
func (m *Master) Addr() string { return m.cfg.Addr }

// Epoch returns the current primacy epoch (0 until a standby hears of one).
func (m *Master) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// LogSeq returns the last metadata log sequence this master holds.
func (m *Master) LogSeq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return uint64(len(m.log))
}

// lockPrimary takes m.mu for a mutating op. On a standby it releases the lock
// again and refuses, so a handler never validates a request against state
// that is not authoritative.
func (m *Master) lockPrimary(what string) error {
	m.mu.Lock()
	if !m.primary {
		m.mu.Unlock()
		return m.errNotPrimary(what)
	}
	return nil
}

// commitLocked is the one way the primary changes replicated metadata (m.mu
// held): refuse unless primary, apply the entry, append it to the log and
// wake the shippers. e and everything it points to belong to the log from
// here on and must not be modified.
func (m *Master) commitLocked(e entry) error {
	if !m.primary {
		return m.errNotPrimary("commit")
	}
	e.Seq = uint64(len(m.log)) + 1
	if err := m.st.apply(&e); err != nil {
		return err
	}
	m.log = append(m.log, e)
	m.kickShippersLocked()
	return nil
}

func (m *Master) kickShippersLocked() {
	for _, ch := range m.shipKick {
		kick(ch)
	}
}

// kick wakes a shipper unless a wake-up is already pending.
func kick(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// resetStateLocked wipes the replicated state and log so a full replay
// from the authoritative primary can rebuild it (m.mu held). Runs when a
// follower adopts a new epoch: the new primary's log is authoritative and
// any diverged local tail must not survive.
func (m *Master) resetStateLocked() {
	m.st = newState()
	m.log = nil
	clear(m.leaseEnds)
}

// adoptEpochLocked accepts a remote primary's newer epoch: step down if
// acting primary, wipe state, and await full replay (m.mu held).
func (m *Master) adoptEpochLocked(epoch uint64, from string) {
	m.epoch = epoch
	m.primary = false
	m.primaryAddr = from
	m.resetStateLocked()
	m.lastHeard = m.cfg.Clock.Now()
}

// fencedByEpoch handles a StatusStaleEpoch rejection from a chunkserver or
// a standby: somewhere a newer epoch exists, so this master was deposed.
// It steps down and wipes (the epoch floor is recorded so a later
// self-promotion jumps past the fence), but does not adopt a primary —
// discovery happens via the next heartbeat or probe.
func (m *Master) fencedByEpoch(epoch uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if epoch < m.epoch {
		return
	}
	if m.primary || epoch > m.epoch {
		m.epoch = epoch
		m.primary = false
		m.primaryAddr = ""
		m.resetStateLocked()
		m.lastHeard = m.cfg.Clock.Now()
	}
}

// masterInfoLocked builds the discovery/redirect body (m.mu held).
func (m *Master) masterInfoLocked() MasterInfoResp {
	info := MasterInfoResp{
		Self:      m.cfg.Addr,
		Epoch:     m.epoch,
		IsPrimary: m.primary,
		Endpoints: append([]string(nil), m.cfg.Peers...),
		LogSeq:    uint64(len(m.log)),
	}
	if m.primary {
		info.Primary = m.cfg.Addr
	} else {
		info.Primary = m.primaryAddr
	}
	return info
}

// replicateLog applies a shipped batch (or heartbeat) from a claimed
// primary and acks the last sequence applied. Only another configured master
// may send one: a batch from anywhere else is refused before its epoch is
// looked at, so it can neither depose this master nor wipe its state. It
// stops at the first entry it cannot apply — a gap, an entry apply refuses,
// the end of a batch cut short at an undecodable entry — so Applied never
// covers such an entry and the shipper keeps resending from it.
func (m *Master) replicateLog(req ReplicateLogReq) (ReplicateLogResp, error) {
	if req.From == m.cfg.Addr || peerRank(m.cfg.Peers, req.From) == len(m.cfg.Peers) {
		return ReplicateLogResp{}, fmt.Errorf("master %s: log batch from %q, which is not another configured master",
			m.cfg.Addr, req.From)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if req.Epoch < m.epoch {
		return ReplicateLogResp{}, util.ErrStaleEpoch
	}
	if req.Epoch > m.epoch {
		m.adoptEpochLocked(req.Epoch, req.From)
	} else if m.primary {
		// Two primaries raced to the same epoch. Deterministic tie-break:
		// the lower-ranked endpoint keeps primacy.
		if peerRank(m.cfg.Peers, req.From) >= m.rank() {
			return ReplicateLogResp{}, util.ErrStaleEpoch
		}
		m.adoptEpochLocked(req.Epoch, req.From)
	}
	m.primaryAddr = req.From
	m.lastHeard = m.cfg.Clock.Now()
	for i := range req.Entries {
		e := &req.Entries[i]
		applied := uint64(len(m.log))
		if e.Seq <= applied {
			continue // duplicate from a rewound shipper
		}
		if e.Seq != applied+1 || m.st.apply(e) != nil {
			break // the ack's Applied rewinds the shipper
		}
		m.log = append(m.log, *e)
	}
	return ReplicateLogResp{Epoch: m.epoch, Applied: uint64(len(m.log))}, nil
}

func peerRank(peers []string, addr string) int {
	for i, p := range peers {
		if p == addr {
			return i
		}
	}
	return len(peers)
}

// shipLoop replicates the log to one standby, at most shipBatchMax entries
// per call: kicked on every append, heartbeating every PrimacyTTL/4
// otherwise, rewinding its cursor from each ack so dead or freshly-healed
// standbys catch up by full replay.
func (m *Master) shipLoop(peer string, wake chan struct{}) {
	defer m.wg.Done()
	hb := m.cfg.PrimacyTTL / 4
	tick := time.NewTimer(hb)
	defer tick.Stop()
	var cursor uint64
	for {
		tick.Reset(hb)
		select {
		case <-m.closedCh:
			return
		case <-wake:
		case <-tick.C:
		}
		m.mu.Lock()
		if !m.primary {
			m.mu.Unlock()
			cursor = 0
			continue
		}
		epoch, end := m.epoch, uint64(len(m.log))
		if cursor > end {
			cursor = 0 // log was reset across a demote/re-promote cycle
		}
		// Entries are immutable once appended, so the batch is read outside
		// the lock without a copy.
		batch := m.log[cursor:min(end, cursor+shipBatchMax)]
		m.mu.Unlock()

		payload, err := jsonBody(ReplicateLogReq{Epoch: epoch, From: m.cfg.Addr, Entries: batch})
		if err != nil {
			continue
		}
		// A standby that refuses the batch as stale has deposed this master
		// by the time fanOut returns (heed); one that is dead or silent is
		// retried at the heartbeat tick.
		var ack ReplicateLogResp
		acked := false
		m.fanOut(m.cfg.PrimacyTTL/2, []serverQueue{{peer, []*proto.Message{{Op: proto.MOpReplicateLog, Payload: payload}}}},
			func(_ int, resp *proto.Message) bool {
				acked = resp.Status == proto.StatusOK && json.Unmarshal(resp.Payload, &ack) == nil
				return true
			})
		if !acked {
			continue
		}
		if ack.Applied > cursor && ack.Applied < end {
			kick(wake) // progress, and more to send: go again without waiting
		} else if ack.Applied == cursor && len(batch) > 0 {
			m.cfg.Metrics.Counter(MetricMasterReplayRefused).Inc()
		}
		cursor = ack.Applied
	}
}

// monitorLoop watches for primary silence on standbys and runs the
// promotion protocol, and the primary's reconcile pass. Its tick is a timer
// it owns: on a primary an idle tick allocates nothing.
func (m *Master) monitorLoop() {
	defer m.wg.Done()
	every := m.cfg.PrimacyTTL / 8
	tick := time.NewTimer(every)
	defer tick.Stop()
	for {
		tick.Reset(every)
		select {
		case <-m.closedCh:
			return
		case <-tick.C:
		}
		m.maybePromote()
		m.maybeReconcile()
	}
}

// promoteTimeout is how long a standby waits out primary silence before
// probing: one PrimacyTTL, staggered by rank so standbys promote in
// priority order instead of racing.
func (m *Master) promoteTimeout() time.Duration {
	r := m.rank()
	if r > 0 {
		r--
	}
	return m.cfg.PrimacyTTL + time.Duration(r)*m.cfg.PrimacyTTL/4
}

// maybePromote probes the peer set after primary silence and takes over if
// no reachable master claims primacy at a current-or-newer epoch.
func (m *Master) maybePromote() {
	m.mu.Lock()
	if m.primary || m.cfg.Clock.Now().Sub(m.lastHeard) < m.promoteTimeout() {
		m.mu.Unlock()
		return
	}
	curEpoch := m.epoch
	m.mu.Unlock()

	// Probe every other master first, all in one window: a healthy primary
	// whose heartbeats are merely delayed (or a newly joined standby
	// discovering the cluster) must stand down, not split the epoch space.
	var masters []serverQueue
	for _, p := range m.cfg.Peers {
		if p != m.cfg.Addr {
			masters = append(masters, serverQueue{p, []*proto.Message{{Op: proto.MOpMasterInfo}}})
		}
	}
	maxEpoch := curEpoch
	var claimedPrimary string
	var claimedEpoch uint64
	m.fanOut(m.cfg.PrimacyTTL/4, masters, func(_ int, resp *proto.Message) bool {
		var info MasterInfoResp
		if json.Unmarshal(resp.Payload, &info) == nil {
			maxEpoch = max(maxEpoch, info.Epoch)
			if info.IsPrimary && info.Epoch >= curEpoch && info.Epoch >= claimedEpoch {
				claimedPrimary, claimedEpoch = info.Self, info.Epoch
			}
		}
		return true
	})
	if claimedPrimary != "" {
		m.mu.Lock()
		if claimedEpoch > m.epoch {
			m.adoptEpochLocked(claimedEpoch, claimedPrimary)
		} else if !m.primary {
			m.primaryAddr = claimedPrimary
			m.lastHeard = m.cfg.Clock.Now()
		}
		m.mu.Unlock()
		return
	}

	m.mu.Lock()
	if m.primary || m.epoch != curEpoch {
		m.mu.Unlock() // something changed under us: re-evaluate next tick
		return
	}
	m.epoch = maxEpoch + 1
	m.primary = true
	m.primaryAddr = m.cfg.Addr
	m.reconcileAt = m.cfg.Clock.Now().Add(reconcileEvery)
	for id, vd := range m.st.vdisks { // the lease ends died with the old primary: one LeaseTTL each
		if vd.holder != "" {
			m.leaseEnds[id] = m.cfg.Clock.Now().Add(m.cfg.LeaseTTL)
		}
	}
	fence := make([]serverQueue, len(m.st.servers))
	for i, s := range m.st.servers {
		fence[i] = serverQueue{s.Addr, []*proto.Message{{Op: proto.OpNop}}}
	}
	m.lastHeard = m.cfg.Clock.Now()
	m.mu.Unlock()

	m.cfg.Metrics.Counter(MetricMasterPromotions).Inc()
	// Fence the deposed master everywhere before acting on the new epoch, in
	// one window however many servers are silent: an epoch-stamped no-op
	// makes every reachable chunkserver adopt the new epoch, so stale
	// RecoverChunk/view-bump commands from the old primary bounce even at
	// servers this primary has not commanded yet.
	m.fanOut(m.cfg.PrimacyTTL/4, fence, nil)
	// Wake the shippers: followers must hear the new epoch (and get the
	// full log replayed) without waiting for the next heartbeat tick.
	m.mu.Lock()
	m.kickShippersLocked()
	m.mu.Unlock()
}

// Snapshot captures the replicated state for comparison.
func (m *Master) Snapshot() StateSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.st.snapshot(uint64(len(m.log)))
}

// errNotPrimary builds the standard not-primary error.
func (m *Master) errNotPrimary(what string) error {
	return fmt.Errorf("master %s: %s: %w", m.cfg.Addr, what, util.ErrNotPrimary)
}
