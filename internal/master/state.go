package master

import (
	"encoding/json"
	"fmt"
	"slices"

	"ursa/internal/util"
)

// The master is one state machine: its replicated metadata is a state, and
// a state changes only by applying a logged entry. (*state).apply is the one
// function that writes a state field. It has two callers — commitLocked on
// the primary, replicateLog on a standby, which replays its whole log when a
// new primary's batch cuts it — so the primary's state is produced by exactly
// the code a standby, or a future boot-from-log, runs. Handlers validate a
// request against the state read-only, build the entry that says what
// changes, and commit it; a request that fails validation or placement
// changes nothing anywhere. The primary applies an entry when it appends it,
// before a majority holds it: a handler answers only once one does, but a
// reader of the state may see an entry that a failover then drops.
//
// Invariant: an appended entry is immutable, and state and log share no
// memory. apply copies everything it stores, and a handler that builds an
// entry from state copies what it takes. apply's set-view and materialized
// arms write a stored chunk's fields in place and the other arms assign
// slices, so a state aliasing the log would silently edit history — and a
// shipper marshals log entries outside the lock.

// vdisk is the master-side state of one virtual disk: its metadata and the
// client holding its lease (§4.1), if any; when that ends is not replicated.
type vdisk struct {
	meta   VDiskMeta
	holder string
}

// placeCursors are the round-robin positions of chunk placement.
type placeCursors struct {
	NextPrimary int `json:"nextPrimary"`
	NextBackup  int `json:"nextBackup"`
}

// state is the replicated metadata (guarded by Master.mu). What a master
// keeps outside it is listed on Master.
type state struct {
	servers     []RegisterReq
	vdisks      map[uint32]*vdisk
	byName      map[string]uint32
	nextID      uint32 // last ID issued to a vdisk or snapshot
	cursors     placeCursors
	viewChanges int
	snapshots   map[string]*SnapshotMeta
	// nextSeg is the segment-ID watermark: IDs at or above it were never
	// handed out.
	nextSeg uint64
}

func newState() *state {
	return &state{
		vdisks:    make(map[uint32]*vdisk),
		byName:    make(map[string]uint32),
		snapshots: make(map[string]*SnapshotMeta),
		nextSeg:   1,
	}
}

// entry is one replicated metadata mutation; exactly one kind field is set.
// Its Pos is where the primary appended it: Seq is dense from 1, and Epoch
// is the primary's.
type entry struct {
	Pos
	PutVDisk       *entryPutVDisk       `json:"putVDisk,omitempty"`
	DeleteVDisk    *entryDeleteVDisk    `json:"deleteVDisk,omitempty"`
	Lease          *entryLease          `json:"lease,omitempty"`
	AddServer      *RegisterReq         `json:"addServer,omitempty"`
	SetView        *entrySetView        `json:"setView,omitempty"`
	AllocSegs      *entryAllocSegs      `json:"allocSegs,omitempty"`
	PutSnapshot    *entryPutSnapshot    `json:"putSnapshot,omitempty"`
	DeleteSnapshot *entryDeleteSnapshot `json:"deleteSnapshot,omitempty"`
	Materialized   *entryMaterialized   `json:"materialized,omitempty"`
}

// entryPutVDisk records a provisioned vdisk together with the ID and
// placement cursors its provisioning consumed, so every replica continues
// numbering and round-robin placement where the primary left off.
type entryPutVDisk struct {
	Meta   VDiskMeta `json:"meta"`
	NextID uint32    `json:"nextID"`
	placeCursors
}

type entryDeleteVDisk struct {
	ID uint32 `json:"id"`
}

// entryLease hands one vdisk's lease to Holder; an empty Holder releases it.
type entryLease struct {
	ID     uint32 `json:"id"`
	Holder string `json:"holder"`
}

// entrySetView installs a view change. It carries what a view change
// changes — the view number and the membership — and nothing else: the
// chunk's cold refs are the reconcile pass's to clear and may have been
// cleared while the recovery ran.
type entrySetView struct {
	VDisk    uint32        `json:"vdisk"`
	Index    uint32        `json:"index"`
	View     uint64        `json:"view"`
	Replicas []ReplicaInfo `json:"replicas"`
}

// entryAllocSegs advances the segment-ID watermark. A majority of the
// masters holds it before any flush touches the object store (beginSnapshot
// awaits it), so whichever master promotes next never re-issues an ID that
// may already hold data (segments are write-once). A promotion's first entry
// is one too, at the watermark it inherits: it changes nothing, and once a
// majority holds it, it holds every entry before it.
type entryAllocSegs struct {
	NextSeg uint64 `json:"nextSeg"`
}

type entryPutSnapshot struct {
	Meta   SnapshotMeta `json:"meta"`
	NextID uint32       `json:"nextID"`
}

type entryDeleteSnapshot struct {
	Name string `json:"name"`
}

// entryMaterialized records that every current replica of one chunk holds
// all of its cold extents, as one reconcile pass found: the chunk's cold
// extent table, the demand-fetch metadata, is dropped.
type entryMaterialized struct {
	VDisk uint32 `json:"vdisk"`
	Index uint32 `json:"index"`
}

// entryBatch is the entries of one MOpReplicateLog in wire form.
type entryBatch []entry

// UnmarshalJSON decodes a shipped batch entry by entry and ends it at the
// first entry this build cannot decode: the well-formed entries before it
// still apply, and because the rest is dropped the receiver's ack stops
// short of the bad entry instead of covering it.
func (b *entryBatch) UnmarshalJSON(data []byte) error {
	var raw []json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	*b = make(entryBatch, 0, len(raw))
	for _, r := range raw {
		var e entry
		if json.Unmarshal(r, &e) != nil {
			break
		}
		*b = append(*b, e)
	}
	return nil
}

// apply executes one entry. It either applies the entry whole or returns an
// error and changes nothing: an entry of no kind this build knows, one
// naming a vdisk, chunk or snapshot the state does not hold, or one creating
// a vdisk or snapshot over an ID or name the state already holds. The primary
// validated the entry against the same state under the same lock, and a
// standby's state is the replay of the same log prefix, so an error here
// means the log and the state have diverged; the caller must not record or
// acknowledge the entry.
func (s *state) apply(e *entry) error {
	switch {
	case e.PutVDisk != nil:
		p := e.PutVDisk
		if _, held := s.byName[p.Meta.Name]; held || s.vdisks[p.Meta.ID] != nil {
			return fmt.Errorf("master: vdisk %d %q: %w", p.Meta.ID, p.Meta.Name, util.ErrExists)
		}
		s.vdisks[p.Meta.ID] = &vdisk{meta: p.Meta.Clone()}
		s.byName[p.Meta.Name] = p.Meta.ID
		s.nextID = p.NextID
		s.cursors = p.placeCursors
	case e.DeleteVDisk != nil:
		vd, err := s.byID(e.DeleteVDisk.ID)
		if err != nil {
			return err
		}
		delete(s.byName, vd.meta.Name)
		delete(s.vdisks, vd.meta.ID)
	case e.Lease != nil:
		vd, err := s.byID(e.Lease.ID)
		if err != nil {
			return err
		}
		vd.holder = e.Lease.Holder
	case e.AddServer != nil:
		s.servers = append(s.servers, *e.AddServer)
	case e.SetView != nil:
		p := e.SetView
		cm, err := s.chunk(p.VDisk, p.Index)
		if err != nil {
			return err
		}
		cm.View = p.View
		cm.Replicas = append([]ReplicaInfo(nil), p.Replicas...)
		s.viewChanges++
	case e.AllocSegs != nil:
		if e.AllocSegs.NextSeg > s.nextSeg {
			s.nextSeg = e.AllocSegs.NextSeg
		}
	case e.PutSnapshot != nil:
		if _, ok := s.snapshots[e.PutSnapshot.Meta.Name]; ok {
			return fmt.Errorf("master: snapshot %q: %w", e.PutSnapshot.Meta.Name, util.ErrExists)
		}
		meta := e.PutSnapshot.Meta.Clone()
		s.snapshots[meta.Name] = &meta
		s.nextID = e.PutSnapshot.NextID
	case e.DeleteSnapshot != nil:
		if _, ok := s.snapshots[e.DeleteSnapshot.Name]; !ok {
			return fmt.Errorf("master: snapshot %q: %w", e.DeleteSnapshot.Name, util.ErrNotFound)
		}
		delete(s.snapshots, e.DeleteSnapshot.Name)
	case e.Materialized != nil:
		cm, err := s.chunk(e.Materialized.VDisk, e.Materialized.Index)
		if err != nil {
			return err
		}
		cm.Cold = nil
	default:
		return fmt.Errorf("master: log entry %d is of no known kind", e.Seq)
	}
	return nil
}

// byID returns the vdisk with the given ID.
func (s *state) byID(id uint32) (*vdisk, error) {
	vd, ok := s.vdisks[id]
	if !ok {
		return nil, fmt.Errorf("master: vdisk %d: %w", id, util.ErrNotFound)
	}
	return vd, nil
}

// find returns the vdisk with the given ID or, when id is zero, the given
// name.
func (s *state) find(id uint32, name string) (*vdisk, error) {
	if id != 0 {
		return s.byID(id)
	}
	id, ok := s.byName[name]
	if !ok {
		return nil, fmt.Errorf("master: vdisk %q: %w", name, util.ErrNotFound)
	}
	return s.byID(id)
}

// chunk returns one chunk's metadata, in place.
func (s *state) chunk(vdiskID, index uint32) (*ChunkMeta, error) {
	vd, ok := s.vdisks[vdiskID]
	if !ok || int(index) >= len(vd.meta.Chunks) {
		return nil, fmt.Errorf("master: chunk c%d.%d: %w", vdiskID, index, util.ErrNotFound)
	}
	return &vd.meta.Chunks[index], nil
}

// StateSnapshot is a deep copy of the master's replicated metadata, used
// by tests to prove a standby's state equals the primary's.
type StateSnapshot struct {
	Servers     []RegisterReq
	VDisks      map[uint32]VDiskMeta
	Leases      map[uint32]string // vdisk ID → lease holder
	Snapshots   map[string]SnapshotMeta
	NextID      uint32
	NextPrimary int
	NextBackup  int
	NextSeg     uint64
	ViewChanges int
	LogSeq      uint64
}

// snapshot deep-copies the state, stamped with the log position it stands at.
func (s *state) snapshot(logSeq uint64) StateSnapshot {
	out := StateSnapshot{
		LogSeq:      logSeq,
		VDisks:      make(map[uint32]VDiskMeta, len(s.vdisks)),
		Leases:      make(map[uint32]string, len(s.vdisks)),
		Snapshots:   make(map[string]SnapshotMeta, len(s.snapshots)),
		NextID:      s.nextID,
		NextPrimary: s.cursors.NextPrimary,
		NextBackup:  s.cursors.NextBackup,
		NextSeg:     s.nextSeg,
		ViewChanges: s.viewChanges,
	}
	for name, snap := range s.snapshots {
		out.Snapshots[name] = snap.Clone()
	}
	out.Servers = slices.Clone(s.servers)
	for id, vd := range s.vdisks {
		out.VDisks[id] = vd.meta.Clone()
		out.Leases[id] = vd.holder
	}
	return out
}
