package chunkserver

import (
	"encoding/json"
	"errors"

	"ursa/internal/blockstore"
	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/coldtier"
	"ursa/internal/journal"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/redundancy"
	"ursa/internal/util"
)

// The admin interface: the commands only the master originates — chunk
// membership, views, fills, snapshot flushes. They are fenced by the
// master's primacy epoch, and the fence sits in the dispatch, ahead of the
// switch: an op is fenced because it is handled here, so a new admin op
// cannot forget to be.

// handleAdmin dispatches an admin op; anything it does not know is an error.
func (s *Server) handleAdmin(op *opctx.Op, m *proto.Message) *proto.Message {
	// Epoch fence: a command stamped with an epoch older than the newest this
	// server has witnessed comes from a deposed master — reject it before it
	// can touch views, versions, or chunk membership. Newer epochs are
	// adopted (the new primary's fencing OpNop broadcast lands here too).
	// Every master stamps its epoch, a lone one too; 0 is merely the lowest.
	if cur, adopted := s.witnessEpoch(m.Epoch); !adopted {
		s.cfg.Metrics.Counter(MetricStaleEpochRejections).Inc()
		r := m.Reply(proto.StatusStaleEpoch)
		r.Epoch = cur // tell the deposed sender what fenced it
		return r
	}
	switch m.Op {
	case proto.OpNop: // the promotion broadcast's vehicle
		return m.Reply(proto.StatusOK)
	case proto.OpCreateChunk:
		return s.handleCreateChunk(m)
	case proto.OpDeleteChunk:
		return s.handleDeleteChunk(m)
	case proto.OpSetView:
		return s.handleSetView(m)
	case proto.OpFill:
		return s.handleFill(op, m)
	case proto.OpFlushChunks:
		return s.handleFlushChunks(op, m)
	}
	return m.Reply(proto.StatusError)
}

// witnessEpoch folds e into the newest-witnessed master epoch: adopted
// reports whether e is current (>= the max seen); cur returns the fencing
// epoch when it is not.
func (s *Server) witnessEpoch(e uint64) (cur uint64, adopted bool) {
	for {
		cur = s.masterEpoch.Load()
		if e < cur {
			return cur, false
		}
		if e == cur || s.masterEpoch.CompareAndSwap(cur, e) {
			return e, true
		}
	}
}

// MasterEpoch returns the newest master epoch this server has witnessed.
func (s *Server) MasterEpoch() uint64 { return s.masterEpoch.Load() }

// Pos is a position in the master's metadata log: the epoch of the primary
// that appended an entry, and the entry's sequence number. Package master
// aliases it. Two entries at one Pos are one entry: an epoch has at most one
// primary, which appends each sequence number once.
type Pos struct {
	Epoch uint64 `json:"epoch,omitempty"`
	Seq   uint64 `json:"seq"`
}

// CreateChunkReq describes the replica an OpCreateChunk entry creates
// (ChunkCreate); OpSetView reuses it for the new view's backup list.
type CreateChunkReq struct {
	// Backups are peer addresses the primary replicates to (primary only).
	Backups []string `json:"backups,omitempty"`
	// View is the chunk's initial view number.
	View uint64 `json:"view"`
	// Redundancy is the chunk's redundancy policy. The zero value is
	// mirroring, so pre-RS callers need not set it.
	Redundancy redundancy.Spec `json:"redundancy,omitempty"`
	// Holder marks this replica as an RS segment holder storing only
	// segment Seg (a ChunkSize/N slice) rather than the whole chunk.
	Holder bool `json:"holder,omitempty"`
	// Seg is the segment index this holder stores (valid when Holder).
	Seg int `json:"seg,omitempty"`
	// Cold lists the object-backed extents of a cloned chunk; the replica
	// demand-fetches them from the object store at ObjAddr on first access.
	Cold    []coldtier.ExtentRef `json:"cold,omitempty"`
	ObjAddr string               `json:"objAddr,omitempty"`
	// Put is the log position of the entry that created the chunk's vdisk
	// (zero for a view change's replacement): a slot another create left is
	// not this create's (Outdated).
	Put Pos `json:"put,omitempty"`
}

// newChunkState builds the per-chunk state a CreateChunkReq describes.
func (s *Server) newChunkState(req CreateChunkReq) (*chunkState, error) {
	strat, err := redundancy.New(req.Redundancy)
	if err != nil {
		return nil, err
	}
	cs := &chunkState{
		mu: clock.NewMutex(), view: req.View,
		backups: req.Backups,
		lite:    journal.NewLite(liteCap),
		pending: make(map[uint64]pendingWrite),
		spec:    req.Redundancy, strat: strat, holder: req.Holder, seg: req.Seg,
		put: req.Put,
	}
	cs.change.L = cs.mu
	if len(req.Cold) > 0 {
		cs.cold = &coldState{
			objAddr: req.ObjAddr,
			refs:    append([]coldtier.ExtentRef(nil), req.Cold...),
		}
	}
	return cs, nil
}

// ChunkCreate is one entry of an OpCreateChunk message: a chunk and the
// replica to create for it.
type ChunkCreate struct {
	Chunk blockstore.ChunkID `json:"chunk"`
	CreateChunkReq
}

// CreateChunks builds the OpCreateChunk message for entries (the caller
// stamps the epoch). The entries are plain data, so encoding cannot fail.
func CreateChunks(entries ...ChunkCreate) *proto.Message {
	payload, _ := json.Marshal(entries)
	return &proto.Message{Op: proto.OpCreateChunk, Payload: payload}
}

// handleCreateChunk creates the message's replicas in list order, on this
// goroutine: the store hands out slots in arrival order, so one message per
// vdisk lays a vdisk's chunks out on this server's disk in index order. The
// first entry that fails ends the message; the entries after it were never
// made.
func (s *Server) handleCreateChunk(m *proto.Message) *proto.Message {
	var entries []ChunkCreate
	if err := json.Unmarshal(m.Payload, &entries); err != nil || len(entries) == 0 || len(entries) > proto.MaxBatch {
		return m.Reply(proto.StatusError)
	}
	results := make([]proto.ChunkResult, 0, len(entries))
	for _, e := range entries {
		status := s.createChunk(e.Chunk, e.CreateChunkReq)
		results = append(results, proto.ChunkResult{Status: status})
		if status != proto.StatusOK && status != proto.StatusExists {
			break
		}
	}
	return m.ReplyBatch(results)
}

func (s *Server) createChunk(id blockstore.ChunkID, req CreateChunkReq) proto.Status {
	cs, err := s.newChunkState(req)
	if err != nil {
		return proto.StatusError
	}
	// Live state from an earlier view — a replica a view change evicted,
	// now picked as a replacement — or in another role is not this
	// replica's: the view after its eviction may have reused its versions
	// for other writes, and its slot holds another piece. It is deleted, so
	// the slot is made afresh and the fill that follows copies or decodes
	// for the role asked for.
	if old := s.chunk(id); old != nil && old.outdatedBy(req) {
		if st := s.deleteChunk(id, proto.AnyView); st != proto.StatusOK {
			return proto.StatusError
		}
	}
	// The slot is made and the state published under the shard lock, which
	// deleteChunk holds across dropping both: a delete of the same chunk
	// cannot drop the slot found here before the state is published.
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	status := proto.StatusOK
	if err := s.store.CreateSized(id, cs.span()); errors.Is(err, util.ErrExists) {
		// A restarted server re-attaches to chunks that survived on its
		// store: install fresh in-memory state over the existing slot (and
		// its checksums) unless live state is already there. The Exists
		// status is kept so recovery flows still learn the slot was there.
		status = proto.StatusExists
	} else if err != nil {
		return proto.StatusQuota
	}
	if status == proto.StatusOK || sh.m[id] == nil {
		sh.m[id] = cs
	}
	return status
}

func (s *Server) handleDeleteChunk(m *proto.Message) *proto.Message {
	entries, err := proto.DecodeChunks(m.Payload)
	if err != nil {
		return m.Reply(proto.StatusError)
	}
	results := make([]proto.ChunkResult, len(entries))
	for i, e := range entries {
		results[i].Status = s.deleteChunk(e.Chunk, e.UpTo)
	}
	return m.ReplyBatch(results)
}

// deleteChunk drops the replica unless its view is above upTo, the highest
// view at which the sender judged the slot garbage, or it was deleted or
// remade (createChunk remakes an outdated slot) before the chunk lock was
// taken: those are refused with StatusStaleView. It raises the doom mark
// before it waits for the lock, so a fill holding the lock yields. The slot
// goes first, under the chunk lock and the shard lock, and the state leaves
// the table after it: a server publishes a chunk's state only while its slot
// exists. An unguarded delete (AnyView) drops a slot with no state under the
// shard lock alone, which a create holds while it makes a slot and publishes
// its state; a guarded one leaves it, since no view of it can be judged.
func (s *Server) deleteChunk(id blockstore.ChunkID, upTo uint64) proto.Status {
	sh := s.shard(id)
	cs := s.chunk(id)
	if cs == nil {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if upTo != proto.AnyView || sh.m[id] != nil || s.dropLocal(id) != nil {
			return proto.StatusNotFound
		}
		return proto.StatusOK
	}
	cs.doomTo(upTo)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.m[id] != cs || cs.view > upTo {
		return proto.StatusStaleView
	}
	err := s.dropLocal(id)
	delete(sh.m, id)
	cs.doom.Store(proto.AnyView)
	cs.bumpLocked() // wake writers queued on the chunk's state
	if err != nil {
		return proto.StatusError
	}
	return proto.StatusOK
}

// handleSetView installs a view and, when the payload names one, its backup
// list; a payload it cannot decode is refused before anything changes.
func (s *Server) handleSetView(m *proto.Message) *proto.Message {
	var req CreateChunkReq
	if len(m.Payload) > 0 && json.Unmarshal(m.Payload, &req) != nil {
		return m.Reply(proto.StatusError)
	}
	cs := s.chunk(m.Chunk)
	if cs == nil {
		return m.Reply(proto.StatusNotFound)
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if st := SetViewRule(cs.view, m.View); st != proto.StatusOK {
		return m.Reply(st)
	}
	cs.view = m.View
	if req.Backups != nil {
		cs.backups = req.Backups
	}
	r := m.Reply(proto.StatusOK)
	r.View = cs.view
	r.Version = cs.version
	return r
}

// PieceSource names one surviving segment holder, the piece it stores and
// the view the master's probe saw it at.
type PieceSource struct {
	Addr  string `json:"addr"`
	Piece int    `json:"piece"`
	View  uint64 `json:"view"`
}

// FillReq is the JSON payload of OpFill: where the replica's content can
// come from. Source is a replica holding the chunk whole at the target
// version (the header's Version) — a mirror replica or an RS chunk's primary
// — and View the view the master saw it at; Sources are the RS segment
// holders at that version. The master names what it has; handleFill picks
// the method.
type FillReq struct {
	Source  string        `json:"source,omitempty"`
	View    uint64        `json:"view,omitempty"`
	Sources []PieceSource `json:"sources,omitempty"`
}

// handleFill brings the local replica to the target version m.Version by
// the method FillRule picks from what the slot already is: a decode from
// Sources — the whole chunk for an RS primary, the own segment for a holder —
// when the fill names no Source, since nothing holds the chunk whole; an RS
// holder's snapshot of its segment from Source, the primary; a laggard's
// incremental repair from Source (repairFrom); any other slot's whole copy
// from Source.
func (s *Server) handleFill(op *opctx.Op, m *proto.Message) *proto.Message {
	var req FillReq
	if err := json.Unmarshal(m.Payload, &req); err != nil {
		return m.Reply(proto.StatusError)
	}
	cs := s.chunk(m.Chunk)
	if cs == nil {
		return m.Reply(proto.StatusNotFound)
	}
	cs.mu.Lock()
	method := FillRule(req, cs.spec, cs.holder, cs.suspect.Load(), cs.view, cs.version, m.View)
	cs.mu.Unlock()
	switch method {
	case FillDecode:
		seg := -1
		if cs.holder {
			seg = cs.seg
		}
		return s.rebuild(op, m, cs, s.peerDecode(op, m.Chunk, cs.strat, req.Sources, seg, m.Version), true)
	case FillSnapshot:
		return s.rebuild(op, m, cs, s.segmentSnapshot(op, cs, m.Chunk, req.Source, req.View, m.Version), true)
	case FillRepair:
		return s.repairFrom(op, m, cs, req)
	}
	return s.rebuild(op, m, cs, s.mirrorCopy(op, cs, m.Chunk, req.Source, req.View, m.Version), true)
}

// repairFrom pulls incremental repair from req's source: ask, at the view
// the master saw the source at, for the mods since our version (journal
// lite) and install them; when the source's history is garbage-collected,
// fall back to a whole copy (§4.2.1).
func (s *Server) repairFrom(op *opctx.Op, m *proto.Message, cs *chunkState, req FillReq) *proto.Message {
	resp, err := s.peers.Do(op, req.Source, &proto.Message{
		Op:      proto.OpRepairSince,
		Chunk:   m.Chunk,
		View:    req.View,
		Version: cs.committed(),
		Flags:   proto.FlagFill,
	}, s.opBudget(op, 10*s.cfg.ReplTimeout))
	if err != nil {
		return m.Reply(proto.StatusError)
	}
	defer bufpool.Put(resp.Payload) // installed synchronously; the lease ends here
	switch resp.Status {
	case proto.StatusOK:
		// A source short of the target was made afresh since the probe.
		mods, err := decodeRepair(resp.Payload)
		if err != nil || resp.Version < m.Version {
			return m.Reply(proto.StatusError)
		}
		return s.rebuild(op, m, cs, repairMods(cs, mods, resp.Version), false)
	case proto.StatusFallback:
		return s.rebuild(op, m, cs, s.mirrorCopy(op, cs, m.Chunk, req.Source, req.View, m.Version), true)
	}
	return m.Reply(proto.StatusError)
}
