package master

import (
	"fmt"

	"ursa/internal/blockstore"
	"ursa/internal/chunkserver"
	"ursa/internal/coldtier"
	"ursa/internal/proto"
	"ursa/internal/redundancy"
	"ursa/internal/util"
)

// defaultStripeUnit is the striping block size when a vdisk enables
// striping (§3.4).
const defaultStripeUnit = 128 * util.KiB

// CreateVDisk allocates a vdisk: places every chunk's replicas, records the
// metadata, and creates the replicas on the chunk servers. Placement is
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
	if err := req.Redundancy.Validate(); err != nil {
		return nil, fmt.Errorf("master: vdisk %q: %w", req.Name, err)
	}
	nchunks := int(util.CeilDiv(req.Size, util.ChunkSize))
	// Round chunk count up to a whole number of stripe groups so the
	// striping arithmetic never runs off the end.
	if rem := nchunks % req.StripeGroup; rem != 0 {
		nchunks += req.StripeGroup - rem
	}
	return m.provision(VDiskMeta{
		Name:        req.Name,
		Size:        req.Size,
		StripeGroup: req.StripeGroup,
		StripeUnit:  req.StripeUnit,
		Redundancy:  req.Redundancy,
	}, nchunks, req.Replication, "")
}

// provision brings a vdisk into being — the one path behind CreateVDisk and
// CloneFromSnapshot: plan and commit the metadata under the lock, await a
// majority, create the replicas on the chunk servers, and delete the vdisk
// again if a server refuses. A slot exists only for a vdisk a majority of the
// masters holds, so no later primary hands its ID out again. meta carries the
// name, geometry and redundancy; repl overrides the cluster's replica count
// when positive.
func (m *Master) provision(meta VDiskMeta, nchunks, repl int, fromSnap string) (*VDiskMeta, error) {
	if err := m.lockPrimary("create " + meta.Name); err != nil {
		return nil, err
	}
	put, err := m.planVDiskLocked(meta, nchunks, repl, fromSnap)
	var at Pos
	if err == nil {
		at, err = m.commitLocked(entry{PutVDisk: put})
	}
	m.mu.Unlock()
	if err == nil {
		err = m.await(at)
	}
	if err != nil {
		return nil, err
	}
	// put now belongs to the log: read it, hand out a copy.
	if err := m.createChunks(put.Meta.ID, at, put.Meta.Chunks, meta.Redundancy); err != nil {
		_, _ = m.deleteVDisk(GetVDiskReq{ID: put.Meta.ID}) // best-effort cleanup
		return nil, err
	}
	out := put.Meta.Clone()
	return &out, nil
}

// planVDiskLocked validates a provisioning request against the state and
// builds the entry that would carry it out, changing nothing (m.mu held).
// With fromSnap set, geometry and chunk count are that snapshot's and each
// chunk starts with the snapshot's extent refs as its cold table. Placement
// walks a copy of the cursors and the entry carries where they ended, so a
// request that cannot be placed leaves no trace.
func (m *Master) planVDiskLocked(meta VDiskMeta, nchunks, repl int, fromSnap string) (*entryPutVDisk, error) {
	var cold [][]coldtier.ExtentRef
	if fromSnap != "" {
		snap, ok := m.st.snapshots[fromSnap]
		if !ok {
			return nil, fmt.Errorf("master: clone source snapshot %q: %w", fromSnap, util.ErrNotFound)
		}
		meta.Size, meta.StripeGroup, meta.StripeUnit = snap.Size, snap.StripeGroup, snap.StripeUnit
		cold, nchunks = snap.Chunks, len(snap.Chunks)
	}
	if _, exists := m.st.byName[meta.Name]; exists {
		return nil, fmt.Errorf("master: vdisk %q: %w", meta.Name, util.ErrExists)
	}
	if repl <= 0 {
		repl = m.cfg.Replication
	}
	// Placement walks every chunk under the lock, so a vdisk the servers
	// cannot hold — 2^50 bytes, a stripe group of millions — is refused
	// before the walk, by the capacity each pool's servers registered.
	ssds, backups := m.poolsLocked()
	spec := meta.Redundancy
	if !fits(ssds, nchunks, util.ChunkSize) || !fits(backups, nchunks, int64(spec.BackupCount(repl))*spec.SegSize()) {
		return nil, fmt.Errorf("master: vdisk %q: %d chunks exceed the registered capacity: %w", meta.Name, nchunks, util.ErrQuota)
	}
	meta.ID = m.st.nextID + 1
	meta.LeaseTTL = m.cfg.LeaseTTL
	meta.Chunks = make([]ChunkMeta, nchunks)
	cur := m.st.cursors
	for i := range meta.Chunks {
		cm, err := placeChunk(&cur, 1+spec.BackupCount(repl), ssds, backups)
		if err != nil {
			return nil, err
		}
		if cold != nil && len(cold[i]) > 0 {
			cm.Cold = append([]coldtier.ExtentRef(nil), cold[i]...) // an entry shares no memory with the state
		}
		meta.Chunks[i] = cm
	}
	return &entryPutVDisk{Meta: meta, NextID: meta.ID, placeCursors: cur}, nil
}

// poolsLocked returns the servers primaries go to — the SSD servers — and
// those backups go to: the HDD servers in hybrid mode, the SSD servers
// otherwise (m.mu held).
func (m *Master) poolsLocked() (ssds, backups []RegisterReq) {
	for _, s := range m.st.servers {
		if s.SSD {
			ssds = append(ssds, s)
		}
		if s.SSD != m.cfg.HybridMode {
			backups = append(backups, s)
		}
	}
	return ssds, backups
}

// fits reports whether nchunks slots of size bytes fit in the capacity the
// pool's servers registered.
func fits(pool []RegisterReq, nchunks int, size int64) bool {
	var capacity int64
	for _, s := range pool {
		capacity += s.Capacity
	}
	return size == 0 || int64(nchunks) <= capacity/size
}

// placeChunk picks a chunk's repl replicas, advancing cur: first an SSD
// server (the preferred primary), then backups from the backup pool, all on
// distinct machines. Mirroring places repl-1 backups; RS(N,M) places N+M
// segment holders, position-keyed by their list index. fits has vouched
// for the pools: each is non-empty where a replica is asked of it.
func placeChunk(cur *placeCursors, repl int, ssds, backups []RegisterReq) (ChunkMeta, error) {
	cm := ChunkMeta{View: 1}
	used := map[string]bool{}

	primary := ssds[cur.NextPrimary%len(ssds)]
	cur.NextPrimary++
	cm.Replicas = append(cm.Replicas, ReplicaInfo{Addr: primary.Addr, SSD: true})
	used[primary.Machine] = true

	for tries := 0; len(cm.Replicas) < repl && tries < 4*len(backups); tries++ {
		cand := backups[cur.NextBackup%len(backups)]
		cur.NextBackup++
		if used[cand.Machine] || cand.Addr == primary.Addr {
			continue
		}
		used[cand.Machine] = true
		cm.Replicas = append(cm.Replicas, ReplicaInfo{Addr: cand.Addr, SSD: cand.SSD})
	}
	if len(cm.Replicas) < repl {
		return ChunkMeta{}, fmt.Errorf("master: cannot place %d replicas on distinct machines: %w",
			repl, util.ErrQuota)
	}
	return cm, nil
}

// createChunks creates every replica of a new vdisk, whose put entry is at
// put, with one OpCreateChunk message per server, all servers at once
// (fanOut). A message lists that server's replicas in chunk-index order, the
// server runs it on one goroutine and a store hands out slots in arrival
// order: a disk's layout is a function of placement alone, the one a create
// of one replica at a time produces (DESIGN.md "Control-plane round trips").
// The first refusal stops the issuing on every server; what is already out is
// still awaited, so the caller's clean-up cannot be overtaken by a create
// that lands after it.
func (m *Master) createChunks(vdisk uint32, put Pos, chunks []ChunkMeta, spec redundancy.Spec) error {
	queues, held := byServer(chunks)
	for q, refs := range held {
		var batch []chunkserver.ChunkCreate
		weight := 0
		for i, ref := range refs {
			cm := chunks[ref.chunk]
			batch = append(batch, chunkserver.ChunkCreate{
				Chunk:          blockstore.MakeChunkID(vdisk, uint32(ref.chunk)),
				CreateChunkReq: m.createReq(cm, ref.pos, spec, put),
			})
			// An entry's weight on the wire is its cold table's, near enough.
			weight += 256 + 128*len(cm.Cold)
			if len(batch) == proto.MaxBatch || weight >= proto.MaxBatchBytes || i == len(refs)-1 {
				queues[q].msgs = append(queues[q].msgs, chunkserver.CreateChunks(batch...))
				batch, weight = nil, 0
			}
		}
	}
	var first error
	acked := m.fanOut(m.cfg.RPCTimeout, queues, func(q int, resp *proto.Message) bool {
		if first == nil && resp.Status != proto.StatusOK && resp.Status != proto.StatusExists {
			first = fmt.Errorf("master: create vdisk %d on %s: %s", vdisk, queues[q].addr, resp.Status)
		}
		return first == nil
	})
	for q := range queues {
		if first == nil && acked[q] < len(queues[q].msgs) {
			first = fmt.Errorf("master: create vdisk %d on %s: %w", vdisk, queues[q].addr, util.ErrTimeout)
		}
	}
	return first
}

// createReq is what the replica at position pos of a new chunk, of the vdisk
// whose put entry is at put, is created with: the primary learns its backup
// list, and RS segment holders learn which segment of the chunk their
// (smaller) slot stores.
func (m *Master) createReq(cm ChunkMeta, pos int, spec redundancy.Spec, put Pos) chunkserver.CreateChunkReq {
	req := chunkserver.CreateChunkReq{View: cm.View, Redundancy: spec, Put: put}
	if pos == 0 {
		for _, b := range cm.Replicas[1:] {
			req.Backups = append(req.Backups, b.Addr)
		}
	} else if spec.IsRS() {
		req.Holder = true
		req.Seg = pos - 1
	}
	// A cloned chunk starts object-backed: every replica gets the extent
	// table and demand-fetches on first access.
	if len(cm.Cold) > 0 {
		req.Cold = cm.Cold
		req.ObjAddr = m.cfg.ObjstoreAddr
	}
	return req
}

// openVDisk grants the vdisk's lease to req.Client unless another client
// holds it unexpired, and returns the metadata once a majority of the masters
// holds the log it was read at.
func (m *Master) openVDisk(req OpenVDiskReq) (*VDiskMeta, error) {
	if err := m.lockPrimary("open " + req.Name); err != nil {
		return nil, err
	}
	vd, err := m.st.find(0, req.Name)
	if err == nil && vd.holder != "" && vd.holder != req.Client && m.cfg.Clock.Now().Before(m.leaseEnds[vd.meta.ID]) {
		err = fmt.Errorf("master: open %q: %w", req.Name, util.ErrLeaseHeld)
	}
	var at Pos
	var out VDiskMeta
	if err == nil {
		// A change of holder is committed; the holder's own open, like a
		// renewal, logs nothing.
		if vd.holder != req.Client {
			_, err = m.commitLocked(entry{Lease: &entryLease{ID: vd.meta.ID, Holder: req.Client}})
		}
		m.leaseEnds[vd.meta.ID] = m.cfg.Clock.Now().Add(m.cfg.LeaseTTL)
		out = vd.meta.Clone()
		at = End(m.log)
	}
	m.mu.Unlock()
	if err == nil {
		err = m.await(at)
	}
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// renewLease extends req.Client's lease by one LeaseTTL from now, committing
// nothing. Only the holder renews, and it may renew its own lease even after
// its end, as long as no other client's open took it first. A lease no
// client holds is renewed by nobody: every grant a client was answered is on
// a majority of the masters, so a promoted master knows it.
func (m *Master) renewLease(req LeaseReq) (any, error) {
	if err := m.lockPrimary("renew lease"); err != nil {
		return nil, err
	}
	defer m.mu.Unlock()
	vd, err := m.st.byID(req.ID)
	if err != nil {
		return nil, err
	}
	if vd.holder != req.Client {
		return nil, fmt.Errorf("master: renew vdisk %d: %w", req.ID, util.ErrLeaseHeld)
	}
	m.leaseEnds[vd.meta.ID] = m.cfg.Clock.Now().Add(m.cfg.LeaseTTL)
	return nil, nil
}

// closeVDisk releases the lease if req.Client holds it.
func (m *Master) closeVDisk(req LeaseReq) (any, error) {
	if err := m.lockPrimary("close"); err != nil {
		return nil, err
	}
	vd, err := m.st.byID(req.ID)
	if err != nil || vd.holder != req.Client {
		m.mu.Unlock()
		return nil, err
	}
	delete(m.leaseEnds, req.ID)
	return nil, m.commitUnlock(entry{Lease: &entryLease{ID: req.ID}})
}

func (m *Master) getVDisk(req GetVDiskReq) (*VDiskMeta, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	vd, err := m.st.find(req.ID, req.Name)
	if err != nil {
		return nil, err
	}
	out := vd.meta.Clone()
	return &out, nil
}

// deleteVDisk removes the vdisk's metadata and then deletes its chunk replicas
// best-effort through reap: one OpDeleteChunk message per server, all at
// once, so it takes one RPCTimeout at most however many chunks sit on
// unreachable servers. What it leaves, the next reconcile pass reaps.
func (m *Master) deleteVDisk(req GetVDiskReq) (any, error) {
	if err := m.lockPrimary("delete"); err != nil {
		return nil, err
	}
	vd, err := m.st.find(req.ID, req.Name)
	var meta VDiskMeta
	var at Pos
	if err == nil {
		meta = vd.meta.Clone() // RPC fan-out below runs unlocked
		at, err = m.commitLocked(entry{DeleteVDisk: &entryDeleteVDisk{ID: meta.ID}})
		delete(m.leaseEnds, meta.ID)
	}
	m.mu.Unlock()
	if err == nil {
		err = m.await(at) // a delete no majority holds may yet be undone: keep the slots
	}
	if err != nil {
		return nil, err
	}
	queues, held := byServer(meta.Chunks)
	slots := make([][]proto.ChunkEntry, len(held))
	for q, refs := range held {
		for _, ref := range refs {
			slots[q] = append(slots[q], proto.ChunkEntry{Chunk: blockstore.MakeChunkID(meta.ID, uint32(ref.chunk)), UpTo: proto.AnyView})
		}
	}
	m.reap(m.cfg.RPCTimeout, queues, slots)
	return nil, nil
}
