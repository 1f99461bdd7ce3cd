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
// transport, and a handler answers only once a majority of the masters holds
// its entry (step.go states the rule and its three parts). A lease renewal
// by the holder commits nothing, so it ships nothing (renewLease). The
// primary heartbeats (an empty batch) every PrimacyTTL/4, and holds primacy
// while a majority acknowledges its batches within a PrimacyTTL. A standby that hears nothing for its rank-staggered
// timeout probes the other masters for a new epoch and takes over once a
// majority has promised it and none holds a later log. Every
// chunkserver-bound command carries the epoch too, and chunkservers reject
// anything older than the newest epoch they have witnessed
// (StatusStaleEpoch), so a deposed master that un-partitions is fenced at the
// edges before it can act on placement.

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
	// MetricMasterBatches counts the log batches, heartbeats included, a
	// primary sends its standbys.
	MetricMasterBatches = "master-log-batches"
)

// shipBatchMax caps the entries one MOpReplicateLog carries, so that a dead
// or freshly joined standby costs a bounded copy, encode and RPC per attempt
// however long the log is. A standby that acks a full batch is sent the next
// one at once; the ack's Applied paces the rest.
const shipBatchMax = 256

// ReplicateLogReq is the payload of MOpReplicateLog: a batch of entries
// (empty = heartbeat) from the primary From at Epoch; Prev is the position
// before the batch, where the primary's cursor for the standby stands.
type ReplicateLogReq struct {
	Epoch   uint64     `json:"epoch"`
	From    string     `json:"from"`
	Prev    Pos        `json:"prev"`
	Entries entryBatch `json:"entries,omitempty"`
}

// ReplicateLogResp acknowledges a batch with the receiver's epoch and how
// far its log is known to match the primary's; the shipper starts the next
// batch there, so a freshly (re)joined standby is caught up by full-log
// replay.
type ReplicateLogResp struct {
	Epoch   uint64 `json:"epoch"`
	Applied uint64 `json:"applied"`
}

// ProbeReq is the request of a promotion probe (MOpMasterInfo): the master
// From asks for Epoch. A plain MOpMasterInfo carries none.
type ProbeReq struct {
	Epoch uint64 `json:"epoch"`
	From  string `json:"from"`
}

// MasterInfoResp is the payload of MOpMasterInfo and the body of every
// StatusNotPrimary redirect, defined beside the master session that reads
// redirects.
type MasterInfoResp = transport.MasterInfoResp

// rank returns this master's promotion priority: its index in cfg.Peers.
func (m *Master) rank() int { return peerRank(m.cfg.Peers, m.cfg.Addr) }

// initReplication sets the initial role and starts the shipper and monitor
// goroutines. Rank 0 bootstraps as the primary at epoch 1, the others as its
// standbys, unless it joins an already-running cluster (JoinStandby: a
// healed master must discover the current epoch rather than resurrect epoch
// 1). A lone master is rank 0 of a set of one: it ships to nobody, and is a
// majority of one.
func (m *Master) initReplication() {
	m.closedCh = make(chan struct{})
	m.progress = make(chan struct{})
	now := m.cfg.Clock.Now()
	m.lastHeard = now
	if !m.cfg.JoinStandby {
		m.role = Role{Epoch: 1, Leader: m.cfg.Peers[0], Primary: m.rank() == 0}
		m.reconcileAt = now.Add(reconcileEvery)
	}
	for _, p := range m.cfg.Peers {
		if p != m.cfg.Addr {
			m.shipTo = append(m.shipTo, p)
			m.shipKick = append(m.shipKick, make(chan struct{}, 1))
			// The bootstrap primary's first window: no standby can promise
			// another before its own silence of one window has passed.
			m.ships = append(m.ships, Ship{Heard: now})
		}
	}
	for k := range m.shipTo {
		m.wg.Add(1)
		go m.shipLoop(k)
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
	return m.primaryLocked()
}

// primaryLocked reports whether this master holds primacy (m.mu held). A
// primary whose majority has not acknowledged a batch within the primacy
// window steps down here, so it answers nothing from then on.
func (m *Master) primaryLocked() bool {
	if m.role.Primary && !Live(m.cfg.Clock.Now(), m.cfg.PrimacyTTL, m.ships) {
		m.stepDownLocked(m.role.Epoch, "")
	}
	return m.role.Primary
}

// Addr returns the address this master serves at.
func (m *Master) Addr() string { return m.cfg.Addr }

// Epoch returns the highest epoch this master has taken part in (0 until a
// joining standby hears of one).
func (m *Master) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.role.Epoch
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
	if !m.primaryLocked() {
		m.mu.Unlock()
		return m.errNotPrimary(what)
	}
	return nil
}

// commitLocked is the one way the primary changes replicated metadata (m.mu
// held): refuse unless primary, apply the entry, append it to the log at the
// next position and wake the shippers. It returns the position, which the
// caller awaits once it has let go of m.mu; the state shows the entry from
// here on, before a majority holds it. e and everything it points to belong
// to the log from here on and must not be modified.
func (m *Master) commitLocked(e entry) (Pos, error) {
	if !m.primaryLocked() {
		return Pos{}, m.errNotPrimary("commit")
	}
	e.Pos = Pos{Epoch: m.role.Epoch, Seq: uint64(len(m.log)) + 1}
	if err := m.st.apply(&e); err != nil {
		return Pos{}, err
	}
	m.log = append(m.log, e)
	for _, ch := range m.shipKick {
		kick(ch)
	}
	return e.Pos, nil
}

// await blocks, without m.mu, until a majority of the masters holds the entry
// at at, which this master appended as primary. It answers ErrNotPrimary if
// the master was deposed meanwhile — it took a newer epoch — and ErrNoQuorum
// if no majority came within one primacy window, or the master's primacy
// lapsed for want of one. A lone master's entry is held once appended.
func (m *Master) await(at Pos) error {
	var expire <-chan time.Time
	for {
		m.mu.Lock()
		switch {
		case at.Seq == 0:
			m.mu.Unlock()
			return nil
		case m.role.Epoch != at.Epoch:
			m.mu.Unlock()
			return m.errNotPrimary(fmt.Sprintf("commit of entry %d", at.Seq))
		case !m.primaryLocked():
			m.mu.Unlock()
			return m.errNoQuorum(at)
		case Committed(uint64(len(m.log)), m.ships) >= at.Seq:
			m.mu.Unlock()
			return nil
		}
		ch := m.progress
		m.awaited = true
		m.mu.Unlock()
		if expire == nil {
			expire = m.cfg.Clock.After(m.cfg.PrimacyTTL)
		}
		select {
		case <-ch:
		case <-expire:
			return m.errNoQuorum(at)
		case <-m.closedCh:
			return m.errNoQuorum(at)
		}
	}
}

// wakeLocked wakes the handlers awaiting a majority (m.mu held): an ack moved
// a standby, or the role changed.
func (m *Master) wakeLocked() {
	if m.awaited {
		close(m.progress)
		m.progress, m.awaited = make(chan struct{}), false
	}
}

// kick wakes a shipper unless a wake-up is already pending.
func kick(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// stepDownLocked executes StepDown (m.mu held): a primacy that lapsed, an
// epoch a standby or a chunk server says is newer, a primary found by a
// probe. A master that takes a newer epoch waits one promotion timeout for
// its primary before it probes itself. The log and state stay: the next
// primary's batches cut whatever of them it does not hold.
func (m *Master) stepDownLocked(epoch uint64, leader string) {
	r := StepDown(m.role, epoch, leader)
	if r == m.role {
		return
	}
	if r.Epoch > m.role.Epoch {
		m.lastHeard = m.cfg.Clock.Now()
	}
	m.role = r
	m.wakeLocked()
}

// masterInfoLocked builds the discovery/redirect body (m.mu held).
func (m *Master) masterInfoLocked() MasterInfoResp {
	end := End(m.log)
	info := MasterInfoResp{
		Self:      m.cfg.Addr,
		Epoch:     m.role.Epoch,
		IsPrimary: m.primaryLocked(),
		Endpoints: append([]string(nil), m.cfg.Peers...),
		LogEpoch:  end.Epoch,
		LogSeq:    end.Seq,
	}
	if info.IsPrimary || m.role.Leader != m.cfg.Addr {
		info.Primary = m.role.Leader
	}
	return info
}

// masterInfo answers MOpMasterInfo. A probe from another configured master
// may be promised the epoch it asks for (Promise), and the answer says so:
// the answerer is at that epoch and follows the prober.
func (m *Master) masterInfo(msg *proto.Message) jsonResult {
	var req ProbeReq
	if len(msg.Payload) > 0 && json.Unmarshal(msg.Payload, &req) != nil {
		return jsonResult{status: proto.StatusError}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if req.From != "" && req.From != m.cfg.Addr && peerRank(m.cfg.Peers, req.From) < len(m.cfg.Peers) {
		now := m.cfg.Clock.Now()
		fresh := now.Sub(m.lastHeard) < m.cfg.PrimacyTTL
		if r := Promise(m.role, m.primaryLocked() || fresh, req.Epoch, req.From); r != m.role {
			m.role, m.lastHeard = r, now
			m.wakeLocked()
		}
	}
	return jsonResult{status: proto.StatusOK, body: m.masterInfoLocked()}
}

// replicateLog executes StepBatch on a shipped batch (or heartbeat) from a
// claimed primary and acks how far its log matches the primary's. Only
// another configured master may send one: a batch from anywhere else is
// refused before its epoch is looked at, so it can neither depose this master
// nor touch its log. It stops at the first entry it cannot apply — an entry
// apply refuses, the end of a batch cut short at an undecodable entry — so
// Applied never covers such an entry and the shipper keeps resending from it.
// A cut log is replayed from its start, so the state stays the replay of the
// log.
func (m *Master) replicateLog(req ReplicateLogReq) (ReplicateLogResp, error) {
	if req.From == m.cfg.Addr || peerRank(m.cfg.Peers, req.From) == len(m.cfg.Peers) {
		return ReplicateLogResp{}, fmt.Errorf("master %s: log batch from %q, which is not another configured master",
			m.cfg.Addr, req.From)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.primaryLocked() // a lapsed primacy is no reason to refuse
	t := StepBatch(m.role, m.log, req.Epoch, req.From, req.Prev, req.Entries)
	if t.Stale {
		return ReplicateLogResp{}, util.ErrStaleEpoch
	}
	if t.Role != m.role {
		m.role = t.Role
		m.wakeLocked()
	}
	m.lastHeard = m.cfg.Clock.Now()
	if t.Keep < uint64(len(m.log)) {
		m.log = m.log[:t.Keep:t.Keep] // an append must not write over the cut entries, which a shipper may still read
		m.st = newState()
		for i := range m.log {
			_ = m.st.apply(&m.log[i]) // applied once already, in this order
		}
	}
	applied := t.Held
	for i := t.From; i < len(req.Entries); i++ {
		e := &req.Entries[i]
		if e.Seq != uint64(len(m.log))+1 || m.st.apply(e) != nil {
			break // the ack's Applied rewinds the shipper
		}
		m.log = append(m.log, *e)
		applied++
	}
	return ReplicateLogResp{Epoch: m.role.Epoch, Applied: applied}, nil
}

func peerRank(peers []string, addr string) int {
	for i, p := range peers {
		if p == addr {
			return i
		}
	}
	return len(peers)
}

// shipLoop replicates the log to standby k, at most shipBatchMax entries per
// call, and executes StepAck on each ack: kicked on every append,
// heartbeating every PrimacyTTL/4 otherwise. A promotion resets the record,
// so a primary ships from the start of its log and the standby's batch step
// skips what it holds.
func (m *Master) shipLoop(k int) {
	defer m.wg.Done()
	peer, wake := m.shipTo[k], m.shipKick[k]
	hb := m.cfg.PrimacyTTL / 4
	tick := time.NewTimer(hb)
	defer tick.Stop()
	for {
		tick.Reset(hb)
		select {
		case <-m.closedCh:
			return
		case <-wake:
		case <-tick.C:
		}
		m.mu.Lock()
		if !m.primaryLocked() {
			m.mu.Unlock()
			continue
		}
		epoch, cursor, end := m.role.Epoch, m.ships[k].Next, uint64(len(m.log))
		var prev Pos
		if cursor > 0 {
			prev = m.log[cursor-1].Pos
		}
		// Entries are immutable once appended, and a primary's log only
		// grows, so the batch is read outside the lock without a copy.
		batch := m.log[cursor:min(end, cursor+shipBatchMax)]
		sent := m.cfg.Clock.Now()
		m.mu.Unlock()

		payload, err := jsonBody(ReplicateLogReq{Epoch: epoch, From: m.cfg.Addr, Prev: prev, Entries: batch})
		if err != nil {
			continue
		}
		// A standby that refuses the batch as stale has deposed this master
		// by the time fanOut returns (heed); one that is dead or silent is
		// retried at the heartbeat tick.
		var ack ReplicateLogResp
		acked := false
		m.cfg.Metrics.Counter(MetricMasterBatches).Inc()
		m.fanOut(m.cfg.PrimacyTTL/2, []serverQueue{{peer, []*proto.Message{{Op: proto.MOpReplicateLog, Payload: payload}}}},
			func(_ int, resp *proto.Message) bool {
				acked = resp.Status == proto.StatusOK && json.Unmarshal(resp.Payload, &ack) == nil
				return true
			})
		if !acked {
			continue
		}
		m.mu.Lock()
		if m.role.Primary && m.role.Epoch == epoch && ack.Epoch == epoch && m.ships[k].Next == cursor {
			next, again, refused := StepAck(m.ships[k], sent, len(batch), end, ack.Applied)
			m.ships[k] = next
			m.wakeLocked()
			if again {
				kick(wake)
			}
			if refused {
				m.cfg.Metrics.Counter(MetricMasterReplayRefused).Inc()
			}
		}
		m.mu.Unlock()
	}
}

// monitorLoop drops a lapsed primacy, watches for primary silence on
// standbys and runs the promotion protocol, and runs the primary's reconcile
// pass. Its tick is a timer it owns: on a primary an idle tick allocates
// nothing.
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

// maybePromote probes the other masters for the next epoch after primary
// silence and executes Elect on the answers: it takes over when a majority
// promised and none holds a later log, follows a live primary or a newer
// epoch it finds, and otherwise tries again on a later tick.
func (m *Master) maybePromote() {
	m.mu.Lock()
	if m.primaryLocked() || m.cfg.Clock.Now().Sub(m.lastHeard) < m.promoteTimeout() {
		m.mu.Unlock()
		return
	}
	r, t0 := m.role, m.cfg.Clock.Now()
	probe, _ := jsonBody(ProbeReq{Epoch: r.Epoch + 1, From: m.cfg.Addr}) // numbers and a string: cannot fail
	m.mu.Unlock()

	// Probe every other master, all in one window: a healthy primary whose
	// heartbeats are merely delayed, or a standby that still hears it, must
	// not be overrun.
	masters := make([]serverQueue, len(m.shipTo))
	for k, p := range m.shipTo {
		masters[k] = serverQueue{p, []*proto.Message{{Op: proto.MOpMasterInfo, Payload: probe}}}
	}
	answers := make([]*MasterInfoResp, len(masters))
	m.fanOut(m.cfg.PrimacyTTL/4, masters, func(k int, resp *proto.Message) bool {
		var info MasterInfoResp
		if resp.Status == proto.StatusOK && json.Unmarshal(resp.Payload, &info) == nil {
			answers[k] = &info
		}
		return true
	})

	m.mu.Lock()
	if m.role != r {
		m.mu.Unlock() // something changed under us: re-evaluate next tick
		return
	}
	v := Elect(m.cfg.Addr, m.cfg.Peers, r, End(m.log), r.Epoch+1, answers)
	if !v.Promote {
		if v.Role != r {
			m.stepDownLocked(v.Role.Epoch, v.Role.Leader)
		}
		m.mu.Unlock()
		return
	}
	m.role = Role{Epoch: r.Epoch + 1, Leader: m.cfg.Addr, Primary: true}
	for k := range m.ships {
		// A backer promised at t0 or later and refuses anyone else for a
		// window after: the new primacy's first window runs from t0.
		m.ships[k] = Ship{}
		if v.Backed[k] {
			m.ships[k].Heard = t0
		}
	}
	// The first entry of the epoch: the segment watermark it inherits, a
	// no-op for the state. Once a majority holds it, it holds everything
	// before it, which entries of earlier epochs cannot vouch for alone.
	_, _ = m.commitLocked(entry{AllocSegs: &entryAllocSegs{NextSeg: m.st.nextSeg}})
	now := m.cfg.Clock.Now()
	m.reconcileAt = now.Add(reconcileEvery)
	for id, vd := range m.st.vdisks { // the lease ends died with the old primary: one LeaseTTL each
		if vd.holder != "" {
			m.leaseEnds[id] = now.Add(m.cfg.LeaseTTL)
		}
	}
	fence := make([]serverQueue, len(m.st.servers))
	for i, s := range m.st.servers {
		fence[i] = serverQueue{s.Addr, []*proto.Message{{Op: proto.OpNop}}}
	}
	m.lastHeard = now
	m.mu.Unlock()

	m.cfg.Metrics.Counter(MetricMasterPromotions).Inc()
	// Fence the deposed master everywhere before acting on the new epoch, in
	// one window however many servers are silent: an epoch-stamped no-op
	// makes every reachable chunkserver adopt the new epoch, so stale
	// RecoverChunk/view-bump commands from the old primary bounce even at
	// servers this primary has not commanded yet.
	m.fanOut(m.cfg.PrimacyTTL/4, fence, nil)
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

// errNoQuorum builds the error of a commit no majority acknowledged.
func (m *Master) errNoQuorum(at Pos) error {
	return fmt.Errorf("master %s: entry %d of epoch %d: no majority of %d masters: %w",
		m.cfg.Addr, at.Seq, at.Epoch, len(m.cfg.Peers), util.ErrNoQuorum)
}
