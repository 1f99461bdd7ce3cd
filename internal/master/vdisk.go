package master

import (
	"encoding/json"
	"errors"
	"fmt"

	"ursa/internal/blockstore"
	"ursa/internal/chunkserver"
	"ursa/internal/proto"
	"ursa/internal/redundancy"
	"ursa/internal/util"
)

// defaultStripeUnit is the striping block size when a vdisk enables
// striping (§3.4).
const defaultStripeUnit = 128 * util.KiB

func (m *Master) handleCreate(msg *proto.Message) jsonResult {
	var req CreateVDiskReq
	if err := json.Unmarshal(msg.Payload, &req); err != nil {
		return fail(proto.StatusError)
	}
	meta, err := m.CreateVDisk(req)
	if err != nil {
		switch {
		case errors.Is(err, util.ErrExists):
			return fail(proto.StatusExists)
		case errors.Is(err, util.ErrQuota):
			return fail(proto.StatusQuota)
		default:
			return fail(proto.StatusError)
		}
	}
	return ok(meta)
}

// CreateVDisk allocates a vdisk: places every chunk's replicas, creates
// them on the chunk servers, and records the metadata. Placement is
// round-robin with the constraint that no two replicas of a chunk share a
// machine (§3.4).
func (m *Master) CreateVDisk(req CreateVDiskReq) (*VDiskMeta, error) {
	if req.Size <= 0 || req.Size%util.SectorSize != 0 {
		return nil, fmt.Errorf("master: bad vdisk size %d: %w", req.Size, util.ErrOutOfRange)
	}
	if req.StripeGroup <= 0 {
		req.StripeGroup = 1
	}
	if req.StripeUnit <= 0 {
		req.StripeUnit = defaultStripeUnit
	}
	// The striping arithmetic interleaves whole stripe units across a
	// group, so the unit must tile chunks exactly.
	if util.ChunkSize%req.StripeUnit != 0 {
		return nil, fmt.Errorf("master: stripe unit %d does not divide the %d chunk size: %w",
			req.StripeUnit, int64(util.ChunkSize), util.ErrOutOfRange)
	}
	repl := req.Replication
	if repl <= 0 {
		repl = m.cfg.Replication
	}
	if err := req.Redundancy.Validate(); err != nil {
		return nil, fmt.Errorf("master: vdisk %q: %w", req.Name, err)
	}
	nchunks := int(util.CeilDiv(req.Size, util.ChunkSize))
	// Round chunk count up to a whole number of stripe groups so the
	// striping arithmetic never runs off the end.
	if rem := nchunks % req.StripeGroup; rem != 0 {
		nchunks += req.StripeGroup - rem
	}

	m.mu.Lock()
	if m.replicationEnabled() && !m.primary {
		m.mu.Unlock()
		return nil, m.errNotPrimary("create " + req.Name)
	}
	if _, exists := m.byName[req.Name]; exists {
		m.mu.Unlock()
		return nil, fmt.Errorf("master: vdisk %q: %w", req.Name, util.ErrExists)
	}
	m.nextID++
	id := m.nextID
	chunks := make([]ChunkMeta, nchunks)
	var placeErr error
	for i := range chunks {
		chunks[i], placeErr = m.placeChunkLocked(repl, req.Redundancy)
		if placeErr != nil {
			m.mu.Unlock()
			return nil, placeErr
		}
	}
	meta := VDiskMeta{
		ID:             id,
		Name:           req.Name,
		Size:           req.Size,
		StripeGroup:    req.StripeGroup,
		StripeUnit:     req.StripeUnit,
		Chunks:         chunks,
		LeaseTTL:       m.cfg.LeaseTTL,
		WriteRateLimit: m.cfg.WriteRateLimit,
		Redundancy:     req.Redundancy,
	}
	m.vdisks[id] = &vdisk{meta: meta}
	m.byName[req.Name] = id
	m.appendLocked(entryKindPutVDisk, entryPutVDisk{
		Meta: meta.Clone(), NextID: m.nextID,
		NextPrimary: m.nextPrimary, NextBackup: m.nextBackup,
	})
	m.mu.Unlock()

	// Create replicas on the servers (outside the lock: RPC fan-out).
	for i, cm := range chunks {
		if err := m.createChunkReplicas(blockstore.MakeChunkID(id, uint32(i)), cm, req.Redundancy); err != nil {
			m.deleteVDiskByID(id) // best-effort cleanup
			return nil, err
		}
	}
	out := meta.Clone()
	return &out, nil
}

// placeChunkLocked picks the chunk's replica set: first an SSD server (the
// preferred primary), then backups on HDD servers (hybrid mode) or SSD
// servers (SSD-only mode), all on distinct machines. Mirroring places
// repl-1 backups; RS(N,M) places N+M segment holders, position-keyed by
// their list index.
func (m *Master) placeChunkLocked(repl int, spec redundancy.Spec) (ChunkMeta, error) {
	repl = 1 + spec.BackupCount(repl)
	var ssds, backupsPool []serverInfo
	for _, s := range m.servers {
		if s.ssd {
			ssds = append(ssds, s)
		}
		if m.cfg.HybridMode {
			if !s.ssd {
				backupsPool = append(backupsPool, s)
			}
		} else if s.ssd {
			backupsPool = append(backupsPool, s)
		}
	}
	if len(ssds) == 0 || len(backupsPool) == 0 {
		return ChunkMeta{}, fmt.Errorf("master: no eligible servers: %w", util.ErrQuota)
	}
	cm := ChunkMeta{View: 1}
	used := map[string]bool{}

	primary := ssds[m.nextPrimary%len(ssds)]
	m.nextPrimary++
	cm.Replicas = append(cm.Replicas, ReplicaInfo{Addr: primary.addr, SSD: true})
	used[primary.machine] = true

	for tries := 0; len(cm.Replicas) < repl && tries < 4*len(backupsPool); tries++ {
		cand := backupsPool[m.nextBackup%len(backupsPool)]
		m.nextBackup++
		if used[cand.machine] || cand.addr == primary.addr {
			continue
		}
		used[cand.machine] = true
		cm.Replicas = append(cm.Replicas, ReplicaInfo{Addr: cand.addr, SSD: cand.ssd})
	}
	if len(cm.Replicas) < repl {
		return ChunkMeta{}, fmt.Errorf("master: cannot place %d replicas on distinct machines: %w",
			repl, util.ErrQuota)
	}
	return cm, nil
}

// createChunkReplicas issues OpCreateChunk to every replica; the primary
// learns its backup list, and RS segment holders learn which segment of
// the chunk their (smaller) slot stores.
func (m *Master) createChunkReplicas(id blockstore.ChunkID, cm ChunkMeta, spec redundancy.Spec) error {
	for i, r := range cm.Replicas {
		req := chunkserver.CreateChunkReq{View: cm.View, Redundancy: spec}
		if i == 0 {
			for _, b := range cm.Replicas[1:] {
				req.Backups = append(req.Backups, b.Addr)
			}
		} else if spec.IsRS() {
			req.Holder = true
			req.Seg = i - 1
		}
		// A cloned chunk starts object-backed: every replica gets the extent
		// table and demand-fetches on first access.
		if len(cm.Cold) > 0 {
			req.Cold = cm.Cold
			req.ObjAddr = m.cfg.ObjstoreAddr
		}
		if !m.createReplica(r.Addr, id, req) {
			return fmt.Errorf("master: create %v on %s failed", id, r.Addr)
		}
	}
	return nil
}

func (m *Master) handleOpen(msg *proto.Message) jsonResult {
	var req OpenVDiskReq
	if err := json.Unmarshal(msg.Payload, &req); err != nil {
		return fail(proto.StatusError)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.replicationEnabled() && !m.primary {
		return m.notPrimaryLocked()
	}
	id, okName := m.byName[req.Name]
	if !okName {
		return fail(proto.StatusNotFound)
	}
	vd := m.vdisks[id]
	now := m.cfg.Clock.Now()
	if vd.lease.holder != "" && vd.lease.holder != req.Client &&
		now.Before(vd.lease.expiry) {
		return fail(proto.StatusLeaseHeld)
	}
	vd.lease = lease{holder: req.Client, expiry: now.Add(m.cfg.LeaseTTL)}
	m.appendLocked(entryKindLease, entryLease{ID: id, Holder: vd.lease.holder, Expiry: vd.lease.expiry})
	return ok(vd.meta.Clone())
}

func (m *Master) handleRenew(msg *proto.Message) jsonResult {
	var req LeaseReq
	if err := json.Unmarshal(msg.Payload, &req); err != nil {
		return fail(proto.StatusError)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.replicationEnabled() && !m.primary {
		return m.notPrimaryLocked()
	}
	vd, okID := m.vdisks[req.ID]
	if !okID {
		return fail(proto.StatusNotFound)
	}
	now := m.cfg.Clock.Now()
	// Reclaim-on-renew: lease shipping is asynchronous, so a promoted
	// standby may have missed the newest grant. An unheld (or expired)
	// lease goes to the first renewer — the legitimate holder's renew loop
	// reclaims it within one renewal period, and a second client racing it
	// still loses by the ordinary holder check.
	if vd.lease.holder == "" || now.After(vd.lease.expiry) {
		if vd.lease.holder != "" && vd.lease.holder != req.Client {
			return fail(proto.StatusLeaseHeld)
		}
		vd.lease = lease{holder: req.Client, expiry: now.Add(m.cfg.LeaseTTL)}
		m.appendLocked(entryKindLease, entryLease{ID: req.ID, Holder: vd.lease.holder, Expiry: vd.lease.expiry})
		return ok(nil)
	}
	if vd.lease.holder != req.Client {
		return fail(proto.StatusLeaseHeld)
	}
	vd.lease.expiry = now.Add(m.cfg.LeaseTTL)
	m.appendLocked(entryKindLease, entryLease{ID: req.ID, Holder: vd.lease.holder, Expiry: vd.lease.expiry})
	return ok(nil)
}

func (m *Master) handleClose(msg *proto.Message) jsonResult {
	var req LeaseReq
	if err := json.Unmarshal(msg.Payload, &req); err != nil {
		return fail(proto.StatusError)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.replicationEnabled() && !m.primary {
		return m.notPrimaryLocked()
	}
	vd, okID := m.vdisks[req.ID]
	if !okID {
		return fail(proto.StatusNotFound)
	}
	if vd.lease.holder == req.Client {
		vd.lease = lease{}
		m.appendLocked(entryKindLease, entryLease{ID: req.ID})
	}
	return ok(nil)
}

func (m *Master) handleGet(msg *proto.Message) jsonResult {
	var req GetVDiskReq
	if err := json.Unmarshal(msg.Payload, &req); err != nil {
		return fail(proto.StatusError)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	id := req.ID
	if id == 0 {
		var okName bool
		id, okName = m.byName[req.Name]
		if !okName {
			return fail(proto.StatusNotFound)
		}
	}
	vd, okID := m.vdisks[id]
	if !okID {
		return fail(proto.StatusNotFound)
	}
	return ok(vd.meta.Clone())
}

func (m *Master) handleDelete(msg *proto.Message) jsonResult {
	var req GetVDiskReq
	if err := json.Unmarshal(msg.Payload, &req); err != nil {
		return fail(proto.StatusError)
	}
	m.mu.Lock()
	id := req.ID
	if id == 0 {
		id = m.byName[req.Name]
	}
	_, okID := m.vdisks[id]
	m.mu.Unlock()
	if !okID {
		return fail(proto.StatusNotFound)
	}
	m.deleteVDiskByID(id)
	return ok(nil)
}

// deleteVDiskByID removes metadata and deletes chunk replicas best-effort.
func (m *Master) deleteVDiskByID(id uint32) {
	m.mu.Lock()
	vd, okID := m.vdisks[id]
	if !okID {
		m.mu.Unlock()
		return
	}
	delete(m.vdisks, id)
	delete(m.byName, vd.meta.Name)
	m.appendLocked(entryKindDelete, entryDelete{ID: id})
	chunks := vd.meta.Clone().Chunks // RPC fan-out below runs unlocked
	m.mu.Unlock()
	for i, cm := range chunks {
		for _, r := range cm.Replicas {
			m.admin(r.Addr, proto.OpDeleteChunk, blockstore.MakeChunkID(id, uint32(i)), 0, 0, nil, m.cfg.RPCTimeout)
		}
	}
}
