package master

import (
	"encoding/json"
	"errors"
	"fmt"

	"ursa/internal/blockstore"
	"ursa/internal/chunkserver"
	"ursa/internal/coldtier"
	"ursa/internal/proto"
	"ursa/internal/redundancy"
	"ursa/internal/util"
)

// Snapshots and thin clones (the cold tier's metadata plane).
//
// A snapshot freezes a vdisk's content into immutable, checksummed segments
// in the object store: the master allocates each chunk a contiguous
// segment-ID sub-range (replicated before any byte moves, so a failover
// never re-issues an ID), asks each chunk's primary to flush
// (OpFlushChunks), and records the returned extent tables as a SnapshotMeta
// through the op log. A clone is then provisioned in O(metadata): fresh
// chunks are placed as usual but start life with the snapshot's extent refs
// in ChunkMeta.Cold — no data is copied. Replicas demand-fetch extents on
// first access and report back (MOpChunkMaterialized) when fully local,
// which is copy-on-write materialization at extent granularity.

func (m *Master) handleSnapshot(msg *proto.Message) jsonResult {
	var req SnapshotReq
	if err := json.Unmarshal(msg.Payload, &req); err != nil {
		return fail(proto.StatusError)
	}
	meta, err := m.SnapshotVDisk(req.VDisk, req.Name)
	if err != nil {
		return snapFail(m, err)
	}
	return ok(meta)
}

func (m *Master) handleClone(msg *proto.Message) jsonResult {
	var req CloneReq
	if err := json.Unmarshal(msg.Payload, &req); err != nil {
		return fail(proto.StatusError)
	}
	meta, err := m.CloneFromSnapshot(req)
	if err != nil {
		return snapFail(m, err)
	}
	return ok(meta)
}

func (m *Master) handleDeleteSnapshot(msg *proto.Message) jsonResult {
	var req SnapshotReq
	if err := json.Unmarshal(msg.Payload, &req); err != nil {
		return fail(proto.StatusError)
	}
	if err := m.DeleteSnapshot(req.Name); err != nil {
		return snapFail(m, err)
	}
	return ok(nil)
}

// snapFail maps a snapshot-path error to its wire status.
func snapFail(m *Master, err error) jsonResult {
	switch {
	case errors.Is(err, util.ErrNotPrimary):
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.notPrimaryLocked()
	case errors.Is(err, util.ErrExists):
		return fail(proto.StatusExists)
	case errors.Is(err, util.ErrNotFound):
		return fail(proto.StatusNotFound)
	case errors.Is(err, util.ErrQuota):
		return fail(proto.StatusQuota)
	default:
		return fail(proto.StatusError)
	}
}

// coldEnabled reports whether the cluster has a cold tier configured.
func (m *Master) coldEnabled() bool { return m.cfg.ObjstoreAddr != "" }

// SnapshotVDisk flushes vdisk vdiskName's content to the object store and
// records it as snapshot snapName. Snapshots are crash-consistent at extent
// granularity: a write racing the flush lands in either the snapshot or
// only the live disk, but once recorded the snapshot never changes.
func (m *Master) SnapshotVDisk(vdiskName, snapName string) (*SnapshotMeta, error) {
	if !m.coldEnabled() {
		return nil, fmt.Errorf("master: snapshot %q: no object store configured: %w",
			snapName, util.ErrNotFound)
	}
	m.mu.Lock()
	if m.replicationEnabled() && !m.primary {
		m.mu.Unlock()
		return nil, m.errNotPrimary("snapshot " + snapName)
	}
	id, okName := m.byName[vdiskName]
	if !okName {
		m.mu.Unlock()
		return nil, fmt.Errorf("master: snapshot source %q: %w", vdiskName, util.ErrNotFound)
	}
	if _, dup := m.snapshots[snapName]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("master: snapshot %q: %w", snapName, util.ErrExists)
	}
	src := m.vdisks[id].meta.Clone()
	// Allocate the whole flush's segment-ID space up front and replicate the
	// new watermark before any byte moves: a promoted standby continues from
	// the watermark and can never re-issue an ID already written to the
	// store (write-once discipline). The GC treats allocated-but-unrecorded
	// segments of a failed flush as garbage and deletes them later.
	segLo := m.nextSeg
	m.nextSeg += uint64(len(src.Chunks)) * coldtier.SegsPerChunk
	m.appendLocked(entryKindAllocSegs, entryAllocSegs{NextSeg: m.nextSeg})
	// Block GC while the flush is in flight: its fresh segments have no
	// metadata referencing them yet and must not be judged dead.
	m.inflightFlushes++
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.inflightFlushes--
		m.mu.Unlock()
	}()

	// Group the chunks by their primary replica so each server flushes its
	// whole share in one RPC.
	type flushTarget struct {
		idx int
		fc  chunkserver.FlushChunk
	}
	groups := make(map[string][]flushTarget)
	for i, cm := range src.Chunks {
		base := segLo + uint64(i)*coldtier.SegsPerChunk
		addr := cm.Replicas[0].Addr
		groups[addr] = append(groups[addr], flushTarget{i, chunkserver.FlushChunk{
			Chunk: blockstore.MakeChunkID(id, uint32(i)),
			SegLo: base,
			SegHi: base + coldtier.SegsPerChunk,
		}})
	}
	extents := make([][]coldtier.ExtentRef, len(src.Chunks))
	for addr, targets := range groups {
		freq := chunkserver.FlushChunksReq{ObjAddr: m.cfg.ObjstoreAddr}
		for _, t := range targets {
			freq.Chunks = append(freq.Chunks, t.fc)
		}
		// A flush streams whole chunks through the fabric to the object
		// store: give it clone-class headroom, not a control RPC's.
		resp, ok := m.admin(addr, proto.OpFlushChunks, 0, 0, 0, freq, 120*m.cfg.RPCTimeout)
		if !ok {
			return nil, fmt.Errorf("master: snapshot %q: flush on %s failed", snapName, addr)
		}
		var fresp chunkserver.FlushChunksResp
		if err := json.Unmarshal(resp.Payload, &fresp); err != nil || len(fresp.Extents) != len(targets) {
			return nil, fmt.Errorf("master: snapshot %q: bad flush reply from %s", snapName, addr)
		}
		for k, t := range targets {
			extents[t.idx] = fresp.Extents[k]
		}
	}

	m.mu.Lock()
	// Re-check primacy under the lock: a master deposed mid-flush must not
	// record a snapshot the new primary knows nothing about. The flushed
	// segments become garbage the new primary's GC collects.
	if m.replicationEnabled() && !m.primary {
		m.mu.Unlock()
		return nil, m.errNotPrimary("snapshot " + snapName)
	}
	if _, dup := m.snapshots[snapName]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("master: snapshot %q: %w", snapName, util.ErrExists)
	}
	m.nextID++
	meta := SnapshotMeta{
		ID:          m.nextID,
		Name:        snapName,
		Size:        src.Size,
		StripeGroup: src.StripeGroup,
		StripeUnit:  src.StripeUnit,
		Chunks:      extents,
	}
	m.snapshots[snapName] = &meta
	m.appendLocked(entryKindPutSnapshot, entryPutSnapshot{Meta: meta.Clone(), NextID: m.nextID})
	m.mu.Unlock()
	out := meta.Clone()
	return &out, nil
}

// CloneFromSnapshot provisions a new vdisk from a snapshot in O(metadata):
// chunks are placed as usual but created with the snapshot's extent refs
// instead of data — replicas demand-fetch on first access. Clones are
// mirror-only: RS segment holders store encoded slices, which a raw extent
// fetch cannot fill.
func (m *Master) CloneFromSnapshot(req CloneReq) (*VDiskMeta, error) {
	if !m.coldEnabled() {
		return nil, fmt.Errorf("master: clone %q: no object store configured: %w",
			req.Name, util.ErrNotFound)
	}
	repl := req.Replication
	if repl <= 0 {
		repl = m.cfg.Replication
	}
	m.mu.Lock()
	if m.replicationEnabled() && !m.primary {
		m.mu.Unlock()
		return nil, m.errNotPrimary("clone " + req.Name)
	}
	snap, okSnap := m.snapshots[req.Snapshot]
	if !okSnap {
		m.mu.Unlock()
		return nil, fmt.Errorf("master: clone source snapshot %q: %w", req.Snapshot, util.ErrNotFound)
	}
	if _, exists := m.byName[req.Name]; exists {
		m.mu.Unlock()
		return nil, fmt.Errorf("master: vdisk %q: %w", req.Name, util.ErrExists)
	}
	m.nextID++
	id := m.nextID
	chunks := make([]ChunkMeta, len(snap.Chunks))
	for i := range chunks {
		cm, err := m.placeChunkLocked(repl, redundancy.Spec{})
		if err != nil {
			m.mu.Unlock()
			return nil, err
		}
		if refs := snap.Chunks[i]; len(refs) > 0 {
			cm.Cold = append([]coldtier.ExtentRef(nil), refs...)
		}
		chunks[i] = cm
	}
	meta := VDiskMeta{
		ID:             id,
		Name:           req.Name,
		Size:           snap.Size,
		StripeGroup:    snap.StripeGroup,
		StripeUnit:     snap.StripeUnit,
		Chunks:         chunks,
		LeaseTTL:       m.cfg.LeaseTTL,
		WriteRateLimit: m.cfg.WriteRateLimit,
	}
	m.vdisks[id] = &vdisk{meta: meta}
	m.byName[req.Name] = id
	m.appendLocked(entryKindPutVDisk, entryPutVDisk{
		Meta: meta.Clone(), NextID: m.nextID,
		NextPrimary: m.nextPrimary, NextBackup: m.nextBackup,
	})
	m.mu.Unlock()

	for i, cm := range chunks {
		if err := m.createChunkReplicas(blockstore.MakeChunkID(id, uint32(i)), cm, redundancy.Spec{}); err != nil {
			m.deleteVDiskByID(id) // best-effort cleanup
			return nil, err
		}
	}
	out := meta.Clone()
	return &out, nil
}

// DeleteSnapshot removes a snapshot's metadata. Its segments become garbage
// (up to extents still referenced by not-yet-materialized clones) and are
// reclaimed by the next GC pass.
func (m *Master) DeleteSnapshot(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.replicationEnabled() && !m.primary {
		return m.errNotPrimary("delete snapshot " + name)
	}
	if _, okName := m.snapshots[name]; !okName {
		return fmt.Errorf("master: snapshot %q: %w", name, util.ErrNotFound)
	}
	delete(m.snapshots, name)
	m.appendLocked(entryKindDeleteSnapshot, entryDeleteSnapshot{Name: name})
	return nil
}

// GetSnapshot returns a snapshot's metadata (Go API for tests and benches).
func (m *Master) GetSnapshot(name string) (*SnapshotMeta, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap, okName := m.snapshots[name]
	if !okName {
		return nil, fmt.Errorf("master: snapshot %q: %w", name, util.ErrNotFound)
	}
	out := snap.Clone()
	return &out, nil
}

// handleMaterialized records one replica's report that a cloned chunk is
// fully local. Only when every current replica has reported does the master
// drop the chunk's cold refs (replicated): clearing earlier would strand the
// laggards — a GC remap refreshes refs from this table, and an emptied table
// would leave them nothing to fetch from. The report set itself is
// primary-local soft state: losing it across a failover merely delays the
// clear until the (idempotent) reports recur, never breaks a fetch.
func (m *Master) handleMaterialized(msg *proto.Message) jsonResult {
	var req MaterializedReq
	if err := json.Unmarshal(msg.Payload, &req); err != nil {
		return fail(proto.StatusError)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.replicationEnabled() && !m.primary {
		return m.notPrimaryLocked()
	}
	vd, okID := m.vdisks[req.VDisk]
	if !okID || int(req.ChunkIndex) >= len(vd.meta.Chunks) {
		return fail(proto.StatusNotFound)
	}
	cm := &vd.meta.Chunks[req.ChunkIndex]
	if len(cm.Cold) == 0 {
		return ok(nil)
	}
	key := uint64(blockstore.MakeChunkID(req.VDisk, req.ChunkIndex))
	set := m.coldReports[key]
	if set == nil {
		set = make(map[string]bool)
		m.coldReports[key] = set
	}
	set[req.Addr] = true
	for _, r := range cm.Replicas {
		if !set[r.Addr] {
			return ok(nil)
		}
	}
	cm.Cold = nil
	delete(m.coldReports, key)
	m.appendLocked(entryKindSetCold, entrySetCold{VDisk: req.VDisk, Index: req.ChunkIndex})
	return ok(nil)
}

// handleGetColdRefs serves a chunk's current cold extent table — the
// refresh path a replica takes when a GC segment rewrite invalidated the
// refs it was created with.
func (m *Master) handleGetColdRefs(msg *proto.Message) jsonResult {
	var req ColdRefsReq
	if err := json.Unmarshal(msg.Payload, &req); err != nil {
		return fail(proto.StatusError)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	vd, okID := m.vdisks[req.VDisk]
	if !okID || int(req.ChunkIndex) >= len(vd.meta.Chunks) {
		return fail(proto.StatusNotFound)
	}
	refs := vd.meta.Chunks[req.ChunkIndex].Cold
	return ok(ColdRefsResp{Refs: append([]coldtier.ExtentRef(nil), refs...)})
}
