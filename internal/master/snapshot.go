package master

import (
	"encoding/json"
	"fmt"

	"ursa/internal/blockstore"
	"ursa/internal/chunkserver"
	"ursa/internal/coldtier"
	"ursa/internal/proto"
	"ursa/internal/util"
)

// Snapshots and thin clones (the cold tier's metadata plane).
//
// A snapshot freezes a vdisk's content into immutable, checksummed segments
// in the object store: the master allocates each chunk a contiguous
// segment-ID sub-range (held by a majority of the masters before any byte
// moves, so a failover never re-issues an ID), asks each chunk's primary to
// flush (OpFlushChunks), and records the returned extent tables as a SnapshotMeta
// through the op log. A clone is then provisioned in O(metadata): fresh
// chunks are placed as usual but start life with the snapshot's extent refs
// in ChunkMeta.Cold — no data is copied. Replicas demand-fetch extents on
// first access, which is copy-on-write materialization at extent
// granularity; a reconcile pass that finds every replica drained drops the
// refs.

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
	src, segLo, err := m.beginSnapshot(vdiskName, snapName)
	if err != nil {
		return nil, err
	}
	defer func() {
		m.mu.Lock()
		m.inflightFlushes--
		m.mu.Unlock()
	}()

	// Group the chunks by their primary replica so each server flushes its
	// whole share in one message, and flush on every server at once.
	extents, err := m.flushPrimaries(src, segLo)
	if err != nil {
		return nil, fmt.Errorf("master: snapshot %q: %w", snapName, err)
	}

	// Re-check primacy under the lock: a master deposed mid-flush must not
	// record a snapshot the new primary knows nothing about. The flushed
	// segments become garbage the new primary's reconcile pass collects.
	if err := m.lockPrimary("snapshot " + snapName); err != nil {
		return nil, err
	}
	if m.st.snapshots[snapName] != nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("master: snapshot %q: %w", snapName, util.ErrExists)
	}
	id := m.st.nextID + 1
	meta := SnapshotMeta{
		ID:          id,
		Name:        snapName,
		Size:        src.Size,
		StripeGroup: src.StripeGroup,
		StripeUnit:  src.StripeUnit,
		Chunks:      extents,
	}
	if err := m.commitUnlock(entry{PutSnapshot: &entryPutSnapshot{Meta: meta, NextID: id}}); err != nil {
		return nil, err
	}
	out := meta.Clone() // meta now belongs to the log
	return &out, nil
}

// flushPrimaries asks every primary of src to flush its chunks to the object
// store, chunk i into the segment range from segLo + i·SegsPerChunk: one
// OpFlushChunks per server listing its chunks in index order, all servers in
// one window. It returns each chunk's extent table, or which server failed.
func (m *Master) flushPrimaries(src VDiskMeta, segLo uint64) ([][]coldtier.ExtentRef, error) {
	var queues []serverQueue
	var reqs []chunkserver.FlushChunksReq
	var held [][]int // per queue: the index of each chunk it flushes
	at := make(map[string]int)
	for i, cm := range src.Chunks {
		addr := cm.Replicas[0].Addr
		q, seen := at[addr]
		if !seen {
			q, at[addr] = len(queues), len(queues)
			queues = append(queues, serverQueue{addr: addr})
			reqs = append(reqs, chunkserver.FlushChunksReq{ObjAddr: m.cfg.ObjstoreAddr})
			held = append(held, nil)
		}
		base := segLo + uint64(i)*coldtier.SegsPerChunk
		reqs[q].Chunks = append(reqs[q].Chunks, chunkserver.FlushChunk{
			Chunk: blockstore.MakeChunkID(src.ID, uint32(i)),
			SegLo: base,
			SegHi: base + coldtier.SegsPerChunk,
		})
		held[q] = append(held[q], i)
	}
	for q := range queues {
		queues[q].msgs = []*proto.Message{command(proto.OpFlushChunks, 0, 0, 0, reqs[q])}
	}
	extents := make([][]coldtier.ExtentRef, len(src.Chunks))
	flushed := make([]bool, len(queues))
	// A flush streams whole chunks through the fabric to the object store:
	// give it clone-class headroom, not a control RPC's.
	m.fanOut(120*m.cfg.RPCTimeout, queues, func(q int, resp *proto.Message) bool {
		var fresp chunkserver.FlushChunksResp
		if resp.Status != proto.StatusOK || json.Unmarshal(resp.Payload, &fresp) != nil || len(fresp.Extents) != len(held[q]) {
			return false
		}
		for k, i := range held[q] {
			extents[i] = fresp.Extents[k]
		}
		flushed[q] = true
		return true
	})
	for q, ok := range flushed {
		if !ok {
			return nil, fmt.Errorf("flush on %s failed", queues[q].addr)
		}
	}
	return extents, nil
}

// beginSnapshot validates a snapshot request, reserves the flush's whole
// segment-ID space up front, and marks a flush in flight — which vetoes the
// reconcile pass's GC: the fresh segments have no metadata referencing them
// yet and must not be judged dead. (A later pass deletes the allocated but
// unrecorded segments of a failed flush as garbage.)
func (m *Master) beginSnapshot(vdiskName, snapName string) (src VDiskMeta, segLo uint64, err error) {
	if err := m.lockPrimary("snapshot " + snapName); err != nil {
		return VDiskMeta{}, 0, err
	}
	vd, err := m.st.find(0, vdiskName)
	if err == nil && m.st.snapshots[snapName] != nil {
		err = fmt.Errorf("master: snapshot %q: %w", snapName, util.ErrExists)
	}
	var at Pos
	if err == nil {
		src, segLo = vd.meta.Clone(), m.st.nextSeg
		at, err = m.commitLocked(entry{AllocSegs: &entryAllocSegs{NextSeg: segLo + uint64(len(src.Chunks))*coldtier.SegsPerChunk}})
	}
	if err == nil {
		m.inflightFlushes++
	}
	m.mu.Unlock()
	if err != nil {
		return VDiskMeta{}, 0, err
	}
	// The new watermark is held by a majority before a byte moves: whichever
	// master promotes next continues from it, and never re-issues an ID
	// already written to the store (write-once discipline).
	if err := m.await(at); err != nil {
		m.mu.Lock()
		m.inflightFlushes--
		m.mu.Unlock()
		return VDiskMeta{}, 0, err
	}
	return src, segLo, nil
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
	return m.provision(VDiskMeta{Name: req.Name}, 0, req.Replication, req.Snapshot)
}

// DeleteSnapshot removes a snapshot's metadata. Its segments become garbage
// (but for those not-yet-materialized clones still name), which the
// primary's next reconcile pass deletes in its GC phase.
func (m *Master) DeleteSnapshot(name string) error {
	if err := m.lockPrimary("delete snapshot " + name); err != nil {
		return err
	}
	if m.st.snapshots[name] == nil {
		m.mu.Unlock()
		return fmt.Errorf("master: snapshot %q: %w", name, util.ErrNotFound)
	}
	return m.commitUnlock(entry{DeleteSnapshot: &entryDeleteSnapshot{Name: name}})
}
