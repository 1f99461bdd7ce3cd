package master

import (
	"fmt"
	"slices"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/chunkserver"
	"ursa/internal/proto"
)

// Metric names for recovery observability.
const (
	// MetricChunkRecoveries counts completed view changes.
	MetricChunkRecoveries = "chunk-recoveries"
	// MetricRecoveryDuration is the report-to-new-view latency per recovery.
	MetricRecoveryDuration = "chunk-recovery-duration"
	// MetricViewMends counts view changes whose only cause was a replica
	// at a view other than the recorded one: every replica answered the
	// seal at one version. A master installs a view before it records it,
	// so one whose record no majority came to hold — it was cut off from the
	// other masters, or died — leaves replicas ahead of the master that
	// promotes next; a replica that missed an install is left behind.
	MetricViewMends = "master-view-mends"
)

// Agree is the one rule for whether a chunk's replicas agree (§4.2.1):
// every replica answered the version probe OK, at one version, at view —
// the view the chunk's metadata records. The client's probe and the
// master's view change both judge by it; anything else is a view change's
// to mend.
func Agree(view uint64, answers []proto.ChunkResult) bool {
	for _, a := range answers {
		if a.Status != proto.StatusOK || a.Version != answers[0].Version || a.View != view {
			return false
		}
	}
	return len(answers) > 0
}

// RecoverChunk performs a view change for one chunk, replacing failedAddr
// (may be empty for pure repair) and reported from view (the one the reporter
// acted in; 0 names none), and returns the chunk's new metadata. It executes
// Plan's actions, each probe and fill one fanOut and the install
// installView's. An answer that needs no probe — a reporter behind the record
// — comes before any wait. Otherwise one recovery per chunk runs at a time:
// reporters re-fire on a cooldown much shorter than a 64 MB clone, so
// latecomers wait for the one in flight and share its outcome. Every answer
// that hands out the record waits until a majority of the masters holds the
// log it was read at (settled): a reporter is never told a view that the
// master promoted next does not know, and whose new replicas a seal of its
// own record would miss.
func (m *Master) RecoverChunk(vdiskID uint32, chunkIndex uint32, failedAddr string, view uint64) (*ChunkMeta, error) {
	// Only the primary may drive view changes (its commands are also fenced
	// per-RPC; this just fails fast).
	if !m.IsPrimary() {
		return nil, m.errNotPrimary(fmt.Sprintf("recover c%d.%d", vdiskID, chunkIndex))
	}
	r := &Recovery{Failed: failedAddr, View: view}
	at, err := m.record(r, vdiskID, chunkIndex)
	if err != nil {
		return nil, err
	}
	if a := Plan(r); a.Probe == nil {
		return m.settled(&r.Meta, at, a.Err)
	}
	key := uint64(vdiskID)<<32 | uint64(chunkIndex)
	m.recMu.Lock()
	if ch, busy := m.recovering[key]; busy {
		m.recMu.Unlock()
		<-ch
		at, err := m.record(r, vdiskID, chunkIndex)
		return m.settled(&r.Meta, at, err)
	}
	ch := make(chan struct{})
	m.recovering[key] = ch
	m.recMu.Unlock()
	defer func() {
		m.recMu.Lock()
		delete(m.recovering, key)
		m.recMu.Unlock()
		close(ch)
	}()

	t0 := m.cfg.Clock.Now()
	if at, err = m.record(r, vdiskID, chunkIndex); err != nil {
		return nil, err
	}
	id := blockstore.MakeChunkID(vdiskID, chunkIndex)
	for {
		switch a := Plan(r); {
		case a.Err != nil:
			return nil, fmt.Errorf("master: recover %v: %w", id, a.Err)
		case a.Probe != nil:
			r.Rounds = append(r.Rounds, m.probeVersions(id, a.Probe, a.View))
		case a.Fills != nil:
			// The vdisk may have gone while the probe ran: its slots are the
			// reconcile pass's to reap, and a fill would only hold a lock.
			if _, err := m.record(&Recovery{}, vdiskID, chunkIndex); err != nil {
				return nil, err
			}
			r.Rounds = append(r.Rounds, m.fill(id, r.Meta.View, a))
		case a.Install != nil:
			return m.installView(t0, id, vdiskID, chunkIndex, a)
		default:
			return m.settled(&r.Meta, at, nil)
		}
	}
}

// probeVersions asks every address named for the chunk's version and view,
// all at once, sealing each replica at seal when that is not 0: the replica
// adopts the view, so it takes no more writes of the old one, and answers
// once the applies it admitted have landed (chunkserver handleGetVersion). ""
// or silence answers StatusError, and so does a replica that reported its own
// device.
func (m *Master) probeVersions(id blockstore.ChunkID, addrs []string, seal uint64) []proto.ChunkResult {
	answers := make([]proto.ChunkResult, len(addrs))
	queues := make([]serverQueue, len(addrs)) // an address not named gets none
	for i, addr := range addrs {
		answers[i].Status = proto.StatusError
		queues[i].addr = addr
		if addr != "" {
			queues[i].msgs = []*proto.Message{{Op: proto.OpGetVersion, View: seal, Payload: proto.EncodeChunkIDs(id)}}
		}
	}
	m.fanOut(m.cfg.RPCTimeout, queues, func(q int, resp *proto.Message) bool {
		answers[q] = proto.ChunkResult{Status: resp.Status, Version: resp.Version, View: resp.View}
		return true
	})
	return answers
}

// installView installs a's view with its replicas on every one of them, then
// records it. It ignores the install's answers: a replica that missed it is
// mended by the next view change.
func (m *Master) installView(t0 time.Time, id blockstore.ChunkID, vdiskID, chunkIndex uint32, a Action) (*ChunkMeta, error) {
	var backups []string
	for _, r := range a.Install[1:] {
		backups = append(backups, r.Addr)
	}
	queues := make([]serverQueue, len(a.Install))
	for i, r := range a.Install {
		req := chunkserver.CreateChunkReq{View: a.View, Backups: []string{}} // non-nil: clear stale primary state
		if i == 0 {
			req.Backups = backups
		}
		queues[i] = serverQueue{r.Addr, []*proto.Message{command(proto.OpSetView, id, a.View, 0, req)}}
	}
	m.fanOut(m.cfg.RPCTimeout, queues, nil)

	// Record the view. commitLocked refuses a master deposed mid-recovery (its
	// fan-out already bounced off StatusStaleEpoch fences), and await one
	// whose record no majority holds: the view the replicas hold is then
	// ahead of the record of the master that promotes next, and the next view
	// change mends it. apply refuses a chunk whose vdisk was deleted
	// meanwhile.
	m.mu.Lock()
	at, err := m.commitLocked(entry{SetView: &entrySetView{
		VDisk: vdiskID, Index: chunkIndex, View: a.View, Replicas: a.Install,
	}})
	var out ChunkMeta
	if err == nil {
		out = m.st.vdisks[vdiskID].meta.Chunks[chunkIndex].clone()
	}
	m.mu.Unlock()
	if err == nil {
		err = m.await(at)
	}
	if err != nil {
		return nil, err
	}
	m.cfg.Metrics.Counter(MetricChunkRecoveries).Inc()
	if a.Mend {
		m.cfg.Metrics.Counter(MetricViewMends).Inc()
	}
	m.cfg.Metrics.ObserveLatency(MetricRecoveryDuration, m.cfg.Clock.Now().Sub(t0))
	return &out, nil
}

// fill runs a fill action, one queue per replica (a replacement's creates its
// slot first), in a window far wider than a control RPC's: up to 64 MB per
// slot. It answers OK, at the replica's view, for each that answered OK at the
// target version or later; a whole fill answers at the version it installed
// (chunkserver.Adopted), never at one its bytes are not at.
func (m *Master) fill(id blockstore.ChunkID, view uint64, a Action) []proto.ChunkResult {
	filled := make([]proto.ChunkResult, len(a.Fills))
	queues := make([]serverQueue, len(a.Fills))
	for i, f := range a.Fills {
		filled[i].Status = proto.StatusError
		queues[i] = serverQueue{f.Addr, []*proto.Message{command(proto.OpFill, id, view, a.Version, f.Req)}}
		if f.Create != nil {
			create := chunkserver.CreateChunks(chunkserver.ChunkCreate{Chunk: id, CreateChunkReq: *f.Create})
			queues[i].msgs = append([]*proto.Message{create}, queues[i].msgs...)
		}
	}
	m.fanOut(60*m.cfg.RPCTimeout, queues, func(q int, resp *proto.Message) bool {
		if resp.Op == proto.OpCreateChunk {
			return resp.Status == proto.StatusOK || resp.Status == proto.StatusExists
		}
		if resp.Status == proto.StatusOK && resp.Version >= a.Version {
			filled[q] = proto.ChunkResult{Status: proto.StatusOK, Version: resp.Version, View: resp.View}
		}
		return false
	})
	return filled
}

// record loads what a view change starts from into r: the chunk's record, a
// deep copy read outside m.mu while apply's arms change the state's chunk, its
// vdisk's redundancy and the registered servers. It returns the end of the
// log it read them at.
func (m *Master) record(r *Recovery, vdiskID, chunkIndex uint32) (Pos, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur, err := m.st.chunk(vdiskID, chunkIndex)
	if err != nil {
		return Pos{}, err
	}
	r.Meta, r.Spec, r.Servers = cur.clone(), m.st.vdisks[vdiskID].meta.Redundancy, slices.Clone(m.st.servers)
	return End(m.log), nil
}

// settled answers a reporter with meta, read at log end at, once a majority
// of the masters holds the log to there: the state shows an entry before a
// majority holds it (commitLocked), and a view change in flight or one that
// failed may have applied its view here alone.
func (m *Master) settled(meta *ChunkMeta, at Pos, err error) (*ChunkMeta, error) {
	if err == nil {
		err = m.await(at)
	}
	if err != nil {
		return nil, err
	}
	return meta, nil
}
