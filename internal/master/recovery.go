package master

import (
	"fmt"
	"slices"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/chunkserver"
	"ursa/internal/proto"
	"ursa/internal/redundancy"
	"ursa/internal/util"
)

// replicaVersion is one GetVersion result during recovery.
type replicaVersion struct {
	addr    string
	ssd     bool
	version uint64
	alive   bool
}

// Metric names for recovery observability.
const (
	// MetricChunkRecoveries counts completed view changes.
	MetricChunkRecoveries = "chunk-recoveries"
	// MetricRecoveryDuration is the report-to-new-view latency per recovery.
	MetricRecoveryDuration = "chunk-recovery-duration"
)

// RecoverChunk performs a view change for one chunk, replacing failedAddr
// (may be empty for pure repair), and returns the chunk's new metadata. It
// runs the view-change sub-protocol of §4.2.2:
//
//  1. Collect version numbers from the chunk's replicas; require a majority
//     (or — the paper's conservative escape hatch — proceed with fewer when
//     the unreachable replicas are confirmed crashed by the reporter).
//  2. Pick versionH, the highest collected version, as the most recent state.
//  3. Allocate a replacement for each failed replica, and fill the
//     replacements and the lagging live replicas, all at once, from the
//     sources that hold versionH. Each replica picks how: incremental repair
//     for a laggard (§4.2.1), a copy for a fresh slot (chunkserver
//     handleFill).
//  4. Install view i+1 on every replica and update the metadata.
func (m *Master) RecoverChunk(vdiskID uint32, chunkIndex uint32, failedAddr string) (*ChunkMeta, error) {
	// Only the primary may drive view changes; a deposed master starting a
	// recovery here would race the real primary's recovery of the same
	// chunk (its commands are also fenced per-RPC below, this just fails
	// fast).
	if !m.IsPrimary() {
		return nil, m.errNotPrimary(fmt.Sprintf("recover c%d.%d", vdiskID, chunkIndex))
	}
	// One recovery per chunk at a time. Reporters re-fire on a cooldown much
	// shorter than a 64 MB clone, so without this a single dead disk stacks
	// up concurrent duplicate view changes for the same chunk; latecomers
	// wait for the in-flight recovery and share its outcome.
	key := uint64(vdiskID)<<32 | uint64(chunkIndex)
	m.recMu.Lock()
	if ch, busy := m.recovering[key]; busy {
		m.recMu.Unlock()
		<-ch
		cm, _, err := m.chunkMetaSpec(vdiskID, chunkIndex)
		return cm, err
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
	cmp, spec, err := m.chunkMetaSpec(vdiskID, chunkIndex)
	if err != nil {
		return nil, err
	}
	id := blockstore.MakeChunkID(vdiskID, chunkIndex)
	if spec.IsRS() {
		return m.recoverRS(t0, id, vdiskID, chunkIndex, *cmp, spec, failedAddr)
	}
	return m.recoverMirror(t0, id, vdiskID, chunkIndex, *cmp, failedAddr)
}

// recoverMirror is the view change for a mirrored chunk.
func (m *Master) recoverMirror(t0 time.Time, id blockstore.ChunkID,
	vdiskID, chunkIndex uint32, cm ChunkMeta, failedAddr string) (*ChunkMeta, error) {

	// Step 1: collect versions. The reported replica is not probed: the
	// mirror path trusts the reporter.
	states, alive := m.probeVersions(id, cm, failedAddr)
	if alive == 0 {
		return nil, fmt.Errorf("master: recover %v: no replica reachable: %w", id, util.ErrNoQuorum)
	}
	// The paper requires a majority; when the reporter has positively
	// identified the missing replicas as crashed (failedAddr), the master
	// may proceed with the survivors (§4.2.2's write-to-all property).
	if alive*2 <= len(cm.Replicas) && failedAddr == "" {
		return nil, fmt.Errorf("master: recover %v: only %d/%d replicas reachable: %w",
			id, alive, len(cm.Replicas), util.ErrNoQuorum)
	}

	// A stale report against a chunk that is already whole needs no new
	// view: the named replica left the set in an earlier view change (or no
	// replica was named — one still in the set was skipped above and so did
	// not answer), every current replica answered, and all versions agree.
	// Dead devices keep re-reporting for as long as records stay parked on
	// them; answering with the current meta instead of bumping the view
	// stops that churn.
	if consistent(states) {
		return &cm, nil
	}

	// Step 2: versionH.
	var versionH uint64
	var source replicaVersion
	for _, st := range states {
		if st.alive && st.version >= versionH {
			versionH = st.version
			source = st
		}
	}

	// Step 3: fill the live laggards and a replacement for each dead replica,
	// all in one fan-out: a laggard is sent the fill, a replacement the
	// create of its slot and then the fill. Every replacement is chosen
	// before any is made, each pick seeing the chunk's replicas and the
	// picks before it, so no two land on one server or one machine. A dead
	// SSD (primary) replica is replaced by another SSD server — the paper
	// notes SSD recovery is the urgent case in hybrid storage (§5.5). A
	// laggard that cannot be filled keeps its version behind, and a
	// replacement that cannot be placed or filled is left out: the chunk
	// proceeds degraded, and the client's next report retries.
	fillCmd := func() *proto.Message {
		return command(proto.OpFill, id, cm.View, versionH, chunkserver.FillReq{Source: source.addr})
	}
	var queues []serverQueue
	for _, st := range states {
		if st.alive && st.version != versionH && st.addr != source.addr {
			queues = append(queues, serverQueue{st.addr, []*proto.Message{fillCmd()}})
		}
	}
	laggards := len(queues)
	var picks []ReplicaInfo
	replacedBy := make([]int, len(states)) // the pick replacing each dead replica, or -1
	for i, st := range states {
		replacedBy[i] = -1
		if st.alive {
			continue
		}
		cand, found := m.pickReplacement(append(slices.Clone(cm.Replicas), picks...), st.addr, st.ssd)
		if !found {
			continue
		}
		replacedBy[i] = len(picks)
		picks = append(picks, cand)
		queues = append(queues, fillQueue(cand.Addr, id, chunkserver.CreateChunkReq{View: cm.View}, fillCmd()))
	}
	filled := m.fill(queues, versionH)[laggards:]
	newReplicas := make([]ReplicaInfo, 0, len(cm.Replicas))
	for i, st := range states {
		if st.alive {
			newReplicas = append(newReplicas, ReplicaInfo{Addr: st.addr, SSD: st.ssd})
		} else if p := replacedBy[i]; p >= 0 && filled[p] {
			newReplicas = append(newReplicas, picks[p])
		}
	}

	// Keep the preferred primary (an SSD replica) first.
	for i, r := range newReplicas {
		if r.SSD {
			newReplicas[0], newReplicas[i] = newReplicas[i], newReplicas[0]
			break
		}
	}

	return m.installView(t0, id, vdiskID, chunkIndex, cm, newReplicas)
}

// probeVersions is step 1 of every view change: ask every replica of the
// chunk for its version, all at once, so the answers are as near to
// simultaneous as the network allows. skip, when it names a replica, is not
// asked and counts as not alive. A replica that answers anything but OK —
// including one that no longer vouches for the chunk because it reported its
// own device (chunkserver handleGetVersion) — is not alive either.
func (m *Master) probeVersions(id blockstore.ChunkID, cm ChunkMeta, skip string) (states []replicaVersion, alive int) {
	states = make([]replicaVersion, len(cm.Replicas))
	queues := make([]serverQueue, len(cm.Replicas)) // the skipped replica's stays empty
	for i, r := range cm.Replicas {
		states[i] = replicaVersion{addr: r.Addr, ssd: r.SSD}
		queues[i].addr = r.Addr
		if r.Addr != skip {
			queues[i].msgs = []*proto.Message{{Op: proto.OpGetVersion, Payload: proto.EncodeChunkIDs(id)}}
		}
	}
	m.fanOut(m.cfg.RPCTimeout, queues, func(q int, resp *proto.Message) bool {
		if resp.Status == proto.StatusOK {
			states[q].version = resp.Version
			states[q].alive = true
			alive++
		}
		return true
	})
	return states, alive
}

// consistent reports whether every replica answered the probe and all
// answered at one version: the chunk is whole and needs no view change.
func consistent(states []replicaVersion) bool {
	for _, st := range states {
		if !st.alive || st.version != states[0].version {
			return false
		}
	}
	return true
}

// installView is the last step of every view change: install view i+1 with
// the new membership on every replica, then record it.
func (m *Master) installView(t0 time.Time, id blockstore.ChunkID, vdiskID, chunkIndex uint32,
	cm ChunkMeta, newReplicas []ReplicaInfo) (*ChunkMeta, error) {

	newView := cm.View + 1
	var backups []string
	for _, r := range newReplicas[1:] {
		backups = append(backups, r.Addr)
	}
	queues := make([]serverQueue, len(newReplicas))
	for i, r := range newReplicas {
		req := chunkserver.CreateChunkReq{View: newView, Backups: []string{}} // non-nil: clear stale primary state
		if i == 0 {
			req.Backups = backups
		}
		queues[i] = serverQueue{r.Addr, []*proto.Message{command(proto.OpSetView, id, newView, 0, req)}}
	}
	m.fanOut(m.cfg.RPCTimeout, queues, nil)

	// Record the view. commitLocked refuses a master deposed mid-recovery (its
	// fan-out already bounced off StatusStaleEpoch fences), which therefore
	// never installs — or replicates — a view the new primary knows nothing
	// about; apply refuses a chunk whose vdisk was deleted meanwhile.
	m.mu.Lock()
	err := m.commitLocked(entry{SetView: &entrySetView{
		VDisk: vdiskID, Index: chunkIndex, View: newView, Replicas: newReplicas,
	}})
	var out ChunkMeta
	if err == nil {
		out = m.st.vdisks[vdiskID].meta.Chunks[chunkIndex].clone()
	}
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}
	m.cfg.Metrics.Counter(MetricChunkRecoveries).Inc()
	m.cfg.Metrics.ObserveLatency(MetricRecoveryDuration, m.cfg.Clock.Now().Sub(t0))
	return &out, nil
}

// recoverRS is the view change for an RS(N,M) chunk. The replica list is
// position-keyed — Replicas[0] is the full-chunk primary and Replicas[1+i]
// holds segment i — so recovery repairs each position in place (or
// substitutes a fresh server at the same position) and never reorders or
// shrinks the list.
//
// Every fill names the same sources: the primary once one holds versionH,
// and the holders that hold it. Snapshot safety (see chunkserver/rebuild.go)
// is the replica's rule: a holder named a primary fetches an encoded segment
// snapshot from it, and only a fill that names no primary — none holds
// versionH, so no write can commit and the holders are quiescent — decodes
// from N holders directly.
func (m *Master) recoverRS(t0 time.Time, id blockstore.ChunkID,
	vdiskID, chunkIndex uint32, cm ChunkMeta, spec redundancy.Spec, failedAddr string) (*ChunkMeta, error) {

	// Step 1: collect versions, position-keyed. Unlike the mirror path, the
	// reported address is probed like any other replica: the report is the
	// hint that triggered this recovery, not proof of death — clients also
	// report on mere RPC timeouts, and evicting an alive RS replica is
	// expensive (a replaced primary re-decodes 64 MB from the holders). A
	// "failed" replica that answers at versionH makes the whole recovery a
	// no-op below instead of a view change.
	states, alive := m.probeVersions(id, cm, "")
	if alive == 0 {
		return nil, fmt.Errorf("master: recover %v: no replica reachable: %w", id, util.ErrNoQuorum)
	}

	// Stale-report short circuit: every position answered at one consistent
	// version, so the chunk is whole — whatever prompted the report has
	// healed, or was a reporter-side timeout. No new view.
	if consistent(states) {
		return &cm, nil
	}

	// Step 2: versionH and who holds it.
	var versionH uint64
	for _, st := range states {
		if st.alive && st.version > versionH {
			versionH = st.version
		}
	}
	// current reports whether a replica holds versionH. One that answered
	// below it is asked once more: the probes arrive a network jitter apart,
	// so under a live write stream a healthy replica caught mid-apply looks
	// behind — and has caught up by now, which a replica that really missed a
	// write never does. Rebuilding (or, failing that, evicting) a healthy
	// replica is the expensive mistake this second look avoids.
	current := func(st replicaVersion) bool {
		if !st.alive || st.version == versionH {
			return st.alive
		}
		again, alive := m.probeVersions(id, ChunkMeta{Replicas: []ReplicaInfo{{Addr: st.addr}}}, "")
		return alive == 1 && again[0].version >= versionH
	}
	primaryOK := current(states[0])
	var sources []chunkserver.PieceSource
	for i := 1; i < len(states); i++ {
		if states[i].alive && states[i].version == versionH {
			sources = append(sources, chunkserver.PieceSource{Addr: states[i].addr, Piece: i - 1})
		}
	}
	if !primaryOK && len(sources) < spec.N {
		return nil, fmt.Errorf("master: recover %v: version %d held by %d/%d segments and no primary: %w",
			id, versionH, len(sources), spec.N, util.ErrNoQuorum)
	}

	newReplicas := append([]ReplicaInfo(nil), cm.Replicas...)
	changed := false  // membership changed
	repaired := false // some replica was filled in place

	// fillAt creates position pos's slot on addr (an existing slot is kept)
	// and fills it from everything that holds versionH.
	primaryAddr := ""
	fillAt := func(pos int, addr string) bool {
		create := chunkserver.CreateChunkReq{View: cm.View, Redundancy: spec, Holder: pos > 0, Seg: max(pos-1, 0)}
		req := chunkserver.FillReq{Source: primaryAddr, Sources: sources}
		return m.fill([]serverQueue{fillQueue(addr, id, create, command(proto.OpFill, id, cm.View, versionH, req))}, versionH)[0]
	}
	// restore fills one position: in place when its replica is reachable but
	// lagging, and — when it is not reachable, or the in-place fill fails, as
	// it does every time on a live server over a dead device — on a fresh
	// server substituted at the same position. It reports whether a fill
	// landed; when none did, the position keeps its old entry (the list never
	// shrinks) and stays degraded until the next report retries.
	restore := func(pos int) bool {
		st := states[pos]
		if st.alive && fillAt(pos, st.addr) {
			repaired = true
			return true
		}
		target, found := m.pickReplacement(newReplicas, st.addr, st.ssd || pos == 0)
		if !found || !fillAt(pos, target.Addr) {
			return false
		}
		newReplicas[pos] = target
		changed = true
		return true
	}

	// Step 3: restore the primary first so the holders' fills can snapshot
	// it. While it is missing, clients reconstruct reads from the holders.
	if primaryOK || restore(0) {
		primaryAddr = newReplicas[0].Addr
	}

	// Step 4: fill dead or lagging segment holders at their positions.
	for i := 1; i < len(states); i++ {
		if !current(states[i]) {
			restore(i)
		}
	}

	// Step 5: install the new view everywhere — but only if this recovery
	// made progress. A recovery that could not repair anything (e.g. no
	// replacement server available) must not bump the view, or dead devices
	// would drive unbounded view churn.
	if !changed && !repaired {
		return &cm, nil
	}
	return m.installView(t0, id, vdiskID, chunkIndex, cm, newReplicas)
}

// fillQueue is one replacement's share of a view change: create the chunk's
// slot on addr — a slot that already exists, a restarted server re-attaching
// or a retried recovery, is as good as a fresh one — and then fill it with
// then, an OpFill.
func fillQueue(addr string, id blockstore.ChunkID, req chunkserver.CreateChunkReq, then *proto.Message) serverQueue {
	return serverQueue{addr, []*proto.Message{chunkserver.CreateChunks(chunkserver.ChunkCreate{Chunk: id, CreateChunkReq: req}), then}}
}

// fill sends fill queues, all at once, and reports which were filled: their
// fill answered OK at versionH or later. Filling a slot moves up to a whole
// 64 MB chunk through a bandwidth-shaped fabric, so the window is far wider
// than a control RPC's.
func (m *Master) fill(queues []serverQueue, versionH uint64) []bool {
	filled := make([]bool, len(queues))
	m.fanOut(60*m.cfg.RPCTimeout, queues, func(q int, resp *proto.Message) bool {
		if resp.Op == proto.OpCreateChunk {
			return resp.Status == proto.StatusOK || resp.Status == proto.StatusExists
		}
		filled[q] = resp.Status == proto.StatusOK && resp.Version >= versionH
		return false
	})
	return filled
}

// chunkMetaSpec returns a deep copy of one chunk's current metadata plus its
// vdisk's redundancy policy. Recovery reads the copy outside m.mu, while
// apply's seg-remap arm rewrites the state's cold refs under it.
func (m *Master) chunkMetaSpec(vdiskID, chunkIndex uint32) (*ChunkMeta, redundancy.Spec, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur, err := m.st.chunk(vdiskID, chunkIndex)
	if err != nil {
		return nil, redundancy.Spec{}, err
	}
	cm := cur.clone()
	return &cm, m.st.vdisks[vdiskID].meta.Redundancy, nil
}

// pickReplacement chooses a fresh server of the requested storage class
// whose machine hosts none of replicas but deadAddr — the replica being
// replaced, which does not pin its machine.
func (m *Master) pickReplacement(replicas []ReplicaInfo, deadAddr string, ssd bool) (ReplicaInfo, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	used := map[string]bool{}
	for _, r := range replicas {
		if r.Addr == deadAddr {
			continue
		}
		for _, s := range m.st.servers {
			if s.addr == r.Addr {
				used[s.machine] = true
			}
		}
	}
	for _, s := range m.st.servers {
		if s.ssd != ssd || s.addr == deadAddr || used[s.machine] {
			continue
		}
		return ReplicaInfo{Addr: s.addr, SSD: s.ssd}, true
	}
	return ReplicaInfo{}, false
}
