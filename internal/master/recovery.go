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

// Metric names for recovery observability.
const (
	// MetricChunkRecoveries counts completed view changes.
	MetricChunkRecoveries = "chunk-recoveries"
	// MetricRecoveryDuration is the report-to-new-view latency per recovery.
	MetricRecoveryDuration = "chunk-recovery-duration"
	// MetricViewMends counts view changes whose only cause was a replica
	// at a view other than the recorded one: every replica answered at one
	// version. A master that installed a view and died before its log entry
	// shipped leaves replicas ahead of the promoted standby; a replica that
	// missed an install is left behind.
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
// (may be empty for pure repair), and returns the chunk's new metadata. A
// reporter whose view — the one it acted in; 0 names none — is below the
// recorded one is itself behind: it gets the recorded metadata at once, with
// no probe or wait. Otherwise RecoverChunk runs the view change of §4.2.2:
//
//  1. Collect version numbers and views from the chunk's replicas; a chunk
//     whose replicas Agree needs no new view. Require a majority
//     (or — the paper's conservative escape hatch — proceed with fewer when
//     the unreachable replicas are confirmed crashed by the reporter).
//  2. Pick versionH, the highest collected version, as the most recent state.
//  3. Allocate a replacement for each failed replica, and fill the
//     replacements and the lagging live replicas, all at once, from the
//     sources that hold versionH. Each replica picks how: incremental repair
//     for a laggard (§4.2.1), a copy for a fresh slot (chunkserver
//     handleFill).
//  4. Install a new view — numbered above the recorded one, the reporter's
//     and every view a replica reported — on every replica and update the
//     metadata.
func (m *Master) RecoverChunk(vdiskID uint32, chunkIndex uint32, failedAddr string, view uint64) (*ChunkMeta, error) {
	// Only the primary may drive view changes; a deposed master starting a
	// recovery here would race the real primary's recovery of the same
	// chunk (its commands are also fenced per-RPC below, this just fails
	// fast).
	if !m.IsPrimary() {
		return nil, m.errNotPrimary(fmt.Sprintf("recover c%d.%d", vdiskID, chunkIndex))
	}
	if view != 0 {
		if cm, _, err := m.chunkMetaSpec(vdiskID, chunkIndex); err != nil || view < cm.View {
			return cm, err
		}
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
		return m.recoverRS(t0, id, vdiskID, chunkIndex, *cmp, spec, failedAddr, view)
	}
	return m.recoverMirror(t0, id, vdiskID, chunkIndex, *cmp, failedAddr, view)
}

// recoverMirror is the view change for a mirrored chunk.
func (m *Master) recoverMirror(t0 time.Time, id blockstore.ChunkID,
	vdiskID, chunkIndex uint32, cm ChunkMeta, failedAddr string, view uint64) (*ChunkMeta, error) {

	// Step 1: collect versions and views. The reported replica is not
	// probed: the mirror path trusts the reporter.
	answers, alive := m.probeVersions(id, cm, failedAddr)
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
	// not answer), and every current replica answered at one version and at
	// the recorded view, which the reporter's is not above. Dead devices keep
	// re-reporting for as long as records stay parked on them; answering
	// with the current meta stops that churn. Views that differ in nothing
	// else go on to a view change that fills nothing.
	if Agree(cm.View, answers) && view <= cm.View {
		return &cm, nil
	}

	// The vdisk may have gone while the probe ran: its slots are the
	// reconcile pass's to reap, and a fill would only hold a lock.
	if _, _, err := m.chunkMetaSpec(vdiskID, chunkIndex); err != nil {
		return nil, err
	}

	// Step 2: versionH, and a source holding it, read at the view it
	// answered at.
	var versionH uint64
	var source chunkserver.FillReq
	for i, a := range answers {
		if a.Status == proto.StatusOK && a.Version >= versionH {
			versionH = a.Version
			source = chunkserver.FillReq{Source: cm.Replicas[i].Addr, View: a.View}
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
		return command(proto.OpFill, id, cm.View, versionH, source)
	}
	var queues []serverQueue
	for i, a := range answers {
		if r := cm.Replicas[i]; a.Status == proto.StatusOK && a.Version != versionH && r.Addr != source.Source {
			queues = append(queues, serverQueue{r.Addr, []*proto.Message{fillCmd()}})
		}
	}
	laggards := len(queues)
	var picks []ReplicaInfo
	replacedBy := make([]int, len(answers)) // the pick replacing each dead replica, or -1
	for i, a := range answers {
		replacedBy[i] = -1
		if a.Status == proto.StatusOK {
			continue
		}
		r := cm.Replicas[i]
		cand, found := m.pickReplacement(append(slices.Clone(cm.Replicas), picks...), r.Addr, r.SSD)
		if !found {
			continue
		}
		replacedBy[i] = len(picks)
		picks = append(picks, cand)
		queues = append(queues, fillQueue(cand.Addr, id, chunkserver.CreateChunkReq{View: cm.View}, fillCmd()))
	}
	filled := m.fill(queues, versionH)[laggards:]
	newReplicas := make([]ReplicaInfo, 0, len(cm.Replicas))
	for i, a := range answers {
		if a.Status == proto.StatusOK {
			newReplicas = append(newReplicas, cm.Replicas[i])
		} else if p := replacedBy[i]; p >= 0 && filled[p] > 0 {
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

	return m.installView(t0, id, vdiskID, chunkIndex, cm, view, answers, newReplicas)
}

// probeVersions is step 1 of every view change: ask every replica of the
// chunk for its version and view, all at once, so the answers are as near to
// simultaneous as the network allows. It returns one answer per replica, in
// cm.Replicas order. skip, when it names a replica, is not asked and answers
// StatusError, as does a replica that does not answer. Only an OK answer
// makes a replica alive — one that no longer vouches for the chunk because it
// reported its own device (chunkserver handleGetVersion) is not.
func (m *Master) probeVersions(id blockstore.ChunkID, cm ChunkMeta, skip string) (answers []proto.ChunkResult, alive int) {
	answers = make([]proto.ChunkResult, len(cm.Replicas))
	queues := make([]serverQueue, len(cm.Replicas)) // the skipped replica's stays empty
	for i, r := range cm.Replicas {
		answers[i].Status = proto.StatusError
		queues[i].addr = r.Addr
		if r.Addr != skip {
			queues[i].msgs = []*proto.Message{{Op: proto.OpGetVersion, Payload: proto.EncodeChunkIDs(id)}}
		}
	}
	m.fanOut(m.cfg.RPCTimeout, queues, func(q int, resp *proto.Message) bool {
		answers[q] = proto.ChunkResult{Status: resp.Status, Version: resp.Version, View: resp.View}
		if resp.Status == proto.StatusOK {
			alive++
		}
		return true
	})
	return answers, alive
}

// installView is the last step of every view change: install a new view
// with the new membership on every replica, then record it. The new view is
// numbered above the recorded one, the reporter's and every view a replica
// answered the probe with: it supersedes a view a dead master installed or
// handed out but never logged, and no reporter is answered below its view.
func (m *Master) installView(t0 time.Time, id blockstore.ChunkID, vdiskID, chunkIndex uint32,
	cm ChunkMeta, view uint64, answers []proto.ChunkResult, newReplicas []ReplicaInfo) (*ChunkMeta, error) {

	newView, mend := max(cm.View, view), len(answers) > 0
	for _, a := range answers {
		if a.Status == proto.StatusOK {
			newView = max(newView, a.View)
		}
		mend = mend && a.Status == proto.StatusOK && a.Version == answers[0].Version
	}
	newView++
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
	if mend {
		m.cfg.Metrics.Counter(MetricViewMends).Inc()
	}
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
	vdiskID, chunkIndex uint32, cm ChunkMeta, spec redundancy.Spec, failedAddr string, view uint64) (*ChunkMeta, error) {

	// Step 1: collect versions and views, position-keyed. Unlike the mirror
	// path, the reported address is probed like any other replica: the
	// report is the hint that triggered this recovery, not proof of death —
	// clients also report on mere RPC timeouts, and evicting an alive RS
	// replica is expensive (a replaced primary re-decodes 64 MB from the
	// holders). A "failed" replica that answers at versionH makes the whole
	// recovery a no-op below instead of a view change.
	answers, alive := m.probeVersions(id, cm, "")
	if alive == 0 {
		return nil, fmt.Errorf("master: recover %v: no replica reachable: %w", id, util.ErrNoQuorum)
	}

	// Stale-report short circuit: every position answered at one version
	// and at the recorded view, the reporter's not above it: the chunk is
	// whole — whatever prompted the report has healed. No new view.
	if Agree(cm.View, answers) && view <= cm.View {
		return &cm, nil
	}

	// Step 2: versionH and who holds it.
	var versionH uint64
	drift := view > cm.View // the reporter or some replica is at a view other than the recorded one
	for _, a := range answers {
		if a.Status == proto.StatusOK {
			versionH = max(versionH, a.Version)
			drift = drift || a.View != cm.View
		}
	}
	// current reports whether a replica holds versionH. One that answered
	// below it is asked once more: the probes arrive a network jitter apart,
	// so under a live write stream a healthy replica caught mid-apply looks
	// behind — and has caught up by now, which a replica that really missed a
	// write never does. Rebuilding (or, failing that, evicting) a healthy
	// replica is the expensive mistake this second look avoids.
	current := func(pos int) bool {
		if a := answers[pos]; a.Status != proto.StatusOK || a.Version == versionH {
			return a.Status == proto.StatusOK
		}
		again, alive := m.probeVersions(id, ChunkMeta{Replicas: cm.Replicas[pos : pos+1]}, "")
		return alive == 1 && again[0].Version >= versionH
	}
	primaryOK := current(0)
	var sources []chunkserver.PieceSource
	for i, a := range answers[1:] {
		if a.Status == proto.StatusOK && a.Version == versionH {
			sources = append(sources, chunkserver.PieceSource{Addr: cm.Replicas[1+i].Addr, Piece: i, View: a.View})
		}
	}
	if !primaryOK && len(sources) < spec.N {
		return nil, fmt.Errorf("master: recover %v: version %d held by %d/%d segments and no primary: %w",
			id, versionH, len(sources), spec.N, util.ErrNoQuorum)
	}

	// As on the mirror path: a vdisk deleted during the probes gets no fill.
	if _, _, err := m.chunkMetaSpec(vdiskID, chunkIndex); err != nil {
		return nil, err
	}

	newReplicas := append([]ReplicaInfo(nil), cm.Replicas...)
	changed := false  // membership changed
	repaired := false // some replica was filled in place

	// fillAt creates position pos's slot on addr (an existing slot is kept)
	// and fills it from everything that holds versionH: the primary, once
	// one does, and the holders. landed keeps the view the filled replica
	// answered at.
	var primary chunkserver.FillReq
	var landed uint64
	fillAt := func(pos int, addr string) bool {
		create := chunkserver.CreateChunkReq{View: cm.View, Redundancy: spec, Holder: pos > 0, Seg: max(pos-1, 0)}
		req := primary
		req.Sources = sources
		landed = m.fill([]serverQueue{fillQueue(addr, id, create, command(proto.OpFill, id, cm.View, versionH, req))}, versionH)[0]
		return landed > 0
	}
	// restore fills one position: in place when its replica is reachable but
	// lagging, and — when it is not reachable, or the in-place fill fails, as
	// it does every time on a live server over a dead device — on a fresh
	// server substituted at the same position. It reports whether a fill
	// landed; when none did, the position keeps its old entry (the list never
	// shrinks) and stays degraded until the next report retries.
	restore := func(pos int) bool {
		r := cm.Replicas[pos]
		if answers[pos].Status == proto.StatusOK && fillAt(pos, r.Addr) {
			repaired = true
			return true
		}
		target, found := m.pickReplacement(newReplicas, r.Addr, r.SSD || pos == 0)
		if !found || !fillAt(pos, target.Addr) {
			return false
		}
		newReplicas[pos] = target
		changed = true
		return true
	}

	// Step 3: restore the primary first so the holders' fills can snapshot
	// it, at the view it answered the probe or its fill at. While it is
	// missing, clients reconstruct reads from the holders.
	if primaryOK {
		primary = chunkserver.FillReq{Source: cm.Replicas[0].Addr, View: answers[0].View}
	} else if restore(0) {
		primary = chunkserver.FillReq{Source: newReplicas[0].Addr, View: landed}
	}

	// Step 4: fill dead or lagging segment holders at their positions.
	for i := 1; i < len(answers); i++ {
		if !current(i) {
			restore(i)
		}
	}

	// Step 5: install the new view everywhere — but only if this recovery
	// made progress or a replica (or the reporter) is at another view.
	// A recovery that could not repair anything (e.g. no replacement server
	// available) must not bump the view, or dead devices would drive
	// unbounded view churn; a view a replica holds and the log does not —
	// one a dead master installed, or one a replica missed — is mended even
	// when nothing else is.
	if !changed && !repaired && !drift {
		return &cm, nil
	}
	return m.installView(t0, id, vdiskID, chunkIndex, cm, view, answers, newReplicas)
}

// fillQueue is one replacement's share of a view change: create the chunk's
// slot on addr — a slot that already exists, a restarted server re-attaching
// or a retried recovery, is as good as a fresh one — and then fill it with
// then, an OpFill.
func fillQueue(addr string, id blockstore.ChunkID, req chunkserver.CreateChunkReq, then *proto.Message) serverQueue {
	return serverQueue{addr, []*proto.Message{chunkserver.CreateChunks(chunkserver.ChunkCreate{Chunk: id, CreateChunkReq: req}), then}}
}

// fill sends fill queues, all at once, and returns the view each filled
// replica answered at — OK at versionH or later — or 0 (views start at 1).
// Filling a slot moves up to a whole 64 MB chunk through a bandwidth-shaped
// fabric, so the window is far wider than a control RPC's.
func (m *Master) fill(queues []serverQueue, versionH uint64) []uint64 {
	filled := make([]uint64, len(queues))
	m.fanOut(60*m.cfg.RPCTimeout, queues, func(q int, resp *proto.Message) bool {
		if resp.Op == proto.OpCreateChunk {
			return resp.Status == proto.StatusOK || resp.Status == proto.StatusExists
		}
		if resp.Status == proto.StatusOK && resp.Version >= versionH {
			filled[q] = resp.View
		}
		return false
	})
	return filled
}

// chunkMetaSpec returns a deep copy of one chunk's current metadata plus its
// vdisk's redundancy policy. Recovery reads the copy outside m.mu, while
// apply's arms change the state's chunk under it.
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
			if s.Addr == r.Addr {
				used[s.Machine] = true
			}
		}
	}
	for _, s := range m.st.servers {
		if s.SSD != ssd || s.Addr == deadAddr || used[s.Machine] {
			continue
		}
		return ReplicaInfo{Addr: s.Addr, SSD: s.SSD}, true
	}
	return ReplicaInfo{}, false
}
