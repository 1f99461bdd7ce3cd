package chunkserver

import (
	"errors"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/bufpool"
	"ursa/internal/journal"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/redundancy"
	"ursa/internal/util"
)

// The data interface: the ops clients and peer replicas send, fenced per
// chunk by view number and the §4.2.1 version rules — never by the master
// epoch. The two versioned writes share one pipeline (apply.go); everything
// else here reads. This file also owns the replica's local storage:
// readLocal, writeVersioned, writeLocal (installLocal on top of it) and
// dropLocal are the only places that choose between the journal set and the
// bare store.

// handleData dispatches a data op, or returns nil when m is not one.
func (s *Server) handleData(op *opctx.Op, m *proto.Message) *proto.Message {
	switch m.Op {
	case proto.OpRead:
		return s.handleRead(op, m)
	case proto.OpWrite, proto.OpReplicate:
		return s.handleApply(op, m)
	case proto.OpGetVersion:
		return s.handleGetVersion(op, m)
	case proto.OpFetchSegment:
		return s.handleFetchSegment(op, m)
	case proto.OpRepairSince:
		return s.handleRepairSince(op, m)
	}
	return nil
}

// readLocal reads the replica's logical content: journal-merged on a backup
// server, the store on a primary. With an op the device time lands on the
// server's stage (localStage).
func (s *Server) readLocal(op *opctx.Op, id blockstore.ChunkID, buf []byte, off int64) error {
	read := s.store.ReadAt
	if s.jset != nil {
		read = s.jset.Read
	}
	if op == nil {
		return read(id, buf, off)
	}
	st := op.Stage(s.localStage())
	defer st.Stop()
	return read(id, buf, off)
}

// localStage is the stage an op's local device time lands on. It names the
// kind of server, not the replica's role: a backup server (journal set in
// front of an HDD) times backup-journal, a primary server (bare SSD store)
// primary-ssd — whichever role it plays for the chunk.
func (s *Server) localStage() opctx.Stage {
	if s.jset != nil {
		return opctx.StageBackupJournal
	}
	return opctx.StagePrimarySSD
}

// writeVersioned lands the resolved bytes of an admitted versioned write (an
// XOR delta already folded in) and stamps their checksums. On a server with a
// journal set a write of at most BypassThreshold bytes is journaled (§3.2),
// falling back to the device, counted as journal-bypass-writes, when no live
// journal can take it (util.ErrQuota: every one full or dead); anything else
// goes to the device. The op rides into the journal, so group-commit queue
// and flush time land on its journal stages.
func (s *Server) writeVersioned(op *opctx.Op, m *proto.Message, data []byte) error {
	st := op.Stage(s.localStage())
	journaled := s.jset != nil && len(data) <= s.cfg.BypassThreshold
	var err error
	if journaled {
		err = s.jset.Append(op, m.Chunk, m.Off, data, m.Version+1)
		if errors.Is(err, util.ErrQuota) {
			s.cfg.Metrics.Counter(journal.MetricBypassWrites).Inc()
		}
	}
	if !journaled || errors.Is(err, util.ErrQuota) {
		err = s.writeLocal(m.Chunk, data, m.Off)
	}
	st.Stop()
	if err != nil {
		return err
	}
	s.store.Sums().Stamp(m.Chunk, m.Off, data)
	return nil
}

// writeLocal writes data straight to the replica's device. On a backup
// server the write goes through the journal set, so overlapped journal
// extents are invalidated and a stale replay can never land on top.
func (s *Server) writeLocal(id blockstore.ChunkID, data []byte, off int64) error {
	if s.jset != nil {
		return s.jset.WriteDirect(id, data, off)
	}
	return s.store.WriteAt(id, data, off)
}

// installLocal is writeLocal for bytes that did not arrive as a versioned
// write — rebuilt, repaired or demand-fetched content: it also stamps their
// checksums and counts them.
func (s *Server) installLocal(id blockstore.ChunkID, data []byte, off int64) error {
	if err := s.writeLocal(id, data, off); err != nil {
		return err
	}
	s.store.Sums().Stamp(id, off, data)
	s.bytesWritten.Add(int64(len(data)))
	return nil
}

// dropLocal deletes the replica's slot, journal extents first.
func (s *Server) dropLocal(id blockstore.ChunkID) error {
	if s.jset != nil {
		s.jset.DropChunk(id)
	}
	return s.store.Delete(id)
}

// readVerified reads [off, off+len(buf)) of a chunk and checks the payload
// against the chunk's sector checksums. A mismatch is settled per sector
// before being declared corruption: the pipelined write path stamps a
// sector's checksum only after its device write returns, so a read racing
// an overlapping write can transiently observe a payload newer than the
// stamped sum (or the reverse). Settling sector by sector matters for
// large reads (scrub probes, clone fetches) over a write-hot region — a
// whole-buffer retry would need every sector consistent at one instant,
// which under a continuous write stream may never happen; each sector on
// its own settles within microseconds, while real bit-rot never verifies.
// A confirmed mismatch counts chunk-checksum-mismatches and comes back
// wrapping util.ErrCorrupt. op may be nil (scrub and recovery paths).
func (s *Server) readVerified(op *opctx.Op, id blockstore.ChunkID, buf []byte, off int64) error {
	if err := s.readLocal(op, id, buf, off); err != nil {
		return err
	}
	if s.store.Sums().Verify(id, off, buf) == nil {
		return nil
	}
	const sectorRereads = 4
	sec := make([]byte, util.SectorSize)
	for so := int64(0); so < int64(len(buf)); so += util.SectorSize {
		if s.store.Sums().Verify(id, off+so, buf[so:so+util.SectorSize]) == nil {
			continue
		}
		var verr error
		for attempt := 0; ; attempt++ {
			if err := s.readLocal(nil, id, sec, off+so); err != nil {
				return err
			}
			if verr = s.store.Sums().Verify(id, off+so, sec); verr == nil {
				copy(buf[so:], sec)
				break
			}
			if attempt == sectorRereads {
				s.cfg.Metrics.Counter(MetricChecksumMismatches).Inc()
				return verr
			}
			// Give an in-flight stamp a moment to land before re-reading.
			s.cfg.Clock.Sleep(20 * time.Microsecond)
		}
	}
	return nil
}

// failDevice turns a local device error on m's chunk into the reply. The
// failure is reported to the master; a confirmed checksum mismatch answers
// StatusCorrupt — distinguishable, so the caller fails over to another
// replica instead of retrying a disk that lies — anything else StatusError.
func (s *Server) failDevice(m *proto.Message, err error) *proto.Message {
	s.reportDeviceFailure(m.Chunk)
	if errors.Is(err, util.ErrCorrupt) {
		return m.Reply(proto.StatusCorrupt)
	}
	return m.Reply(proto.StatusError)
}

// readVerifiedOr is readVerified for a handler serving m's chunk: nil when
// buf holds verified bytes, otherwise the failure reply (see failDevice).
func (s *Server) readVerifiedOr(op *opctx.Op, m *proto.Message, buf []byte, off int64) *proto.Message {
	if err := s.readVerified(op, m.Chunk, buf, off); err != nil {
		return s.failDevice(m, err)
	}
	return nil
}

// admit is the one way bytes leave a replica: OpRead, OpFetchSegment and
// OpRepairSince pass it before they read (§4.2.1). The chunk exists and, for
// a fill's read (proto.FlagFill), is not suspect; the view is the request's
// and the version at least the request's; the range the op reads lies in the
// slot, and its cold extents are made local. It returns the chunk and the
// version it was admitted at, or the refusal.
func (s *Server) admit(op *opctx.Op, m *proto.Message) (*chunkState, uint64, *proto.Message) {
	cs := s.chunk(m.Chunk)
	if cs == nil {
		return nil, 0, m.Reply(proto.StatusNotFound)
	}
	// The range is checked before anything is allocated for it: a malformed
	// Length would otherwise size an arbitrary buffer.
	off, n, ok := readSpan(cs, m)
	if !ok || m.Flags&proto.FlagFill != 0 && cs.suspect.Load() {
		return nil, 0, m.Reply(proto.StatusError)
	}
	cs.mu.Lock()
	view, ver := cs.view, cs.version
	cs.mu.Unlock()
	if st := ReadRule(view, ver, m.View, m.Version); st != proto.StatusOK {
		r := replyAt(m, st, ver)
		r.View = view
		return nil, 0, r
	}
	if n > 0 && s.ensureCold(op, cs, m.Chunk, off, n) != nil {
		return nil, 0, m.Reply(proto.StatusError)
	}
	return cs, ver, nil
}

// readSpan returns the slot range [off, off+n) m reads and whether it lies
// inside the slot: OpRead's own range; for OpFetchSegment the rows piece Seg
// is made of — its own segment's for a data piece, every data segment's for
// parity — on a replica holding the chunk whole; nothing for OpRepairSince,
// which reads only ranges its history names.
func readSpan(cs *chunkState, m *proto.Message) (off int64, n int, ok bool) {
	off, n = m.Off, int(m.Length)
	switch m.Op {
	case proto.OpRepairSince:
		return 0, 0, true
	case proto.OpFetchSegment:
		spec, seg := cs.spec, int(m.Seg)
		if !spec.IsRS() || cs.holder || seg >= spec.N+spec.M || validRangeIn(off, n, spec.SegSize()) != nil {
			return 0, 0, false
		}
		if seg < spec.N {
			off += int64(seg) * spec.SegSize()
		} else {
			n += (spec.N - 1) * int(spec.SegSize())
		}
	}
	return off, n, validRangeIn(off, n, cs.span()) == nil
}

// handleRead serves a read from the local replica. Any replica with data at
// least as new as the reader's version may serve (§4.1); primaries read
// the SSD store, backups resolve journal extents first.
func (s *Server) handleRead(op *opctx.Op, m *proto.Message) *proto.Message {
	_, ver, r := s.admit(op, m)
	if r != nil {
		return r
	}
	// Leased, not allocated: the response payload rides to the transport,
	// whose Send consumes the lease once the bytes are on the wire.
	buf := bufpool.Get(int(m.Length))
	if r := s.readVerifiedOr(op, m, buf, m.Off); r != nil {
		bufpool.Put(buf)
		return r
	}
	s.reads.Add(1)
	r = replyAt(m, proto.StatusOK, ver)
	r.Payload = buf
	return r
}

// handleGetVersion answers the probe recovery and clients build their
// picture of a chunk from, for every chunk the message lists or, when it
// lists none, every slot the store holds (the master's inventory). A view in
// the header is a view change's seal, which every listed replica takes
// before it answers (sealLocked). A replica that has reported its own device
// for the chunk answers non-OK until a rebuild lands on it: its in-memory
// version says nothing about bytes it can no longer read or write, and a
// prober that took it at its word would count a dead position as healthy.
// The inventory waits on no chunk lock: a fill or a segment snapshot holds
// one across device time, seconds on an HDD, and would hold back the answer
// for every other chunk. A chunk whose lock is held answers non-OK, which a
// reconcile pass leaves for its next.
func (s *Server) handleGetVersion(op *opctx.Op, m *proto.Message) *proto.Message {
	var ids []blockstore.ChunkID
	inventory := len(m.Payload) == 0
	if inventory {
		ids = s.store.Chunks()
	} else {
		entries, err := proto.DecodeChunks(m.Payload)
		if err != nil {
			return m.Reply(proto.StatusError)
		}
		for _, e := range entries {
			ids = append(ids, e.Chunk)
		}
	}
	results := make([]proto.ChunkResult, len(ids))
	for i, id := range ids {
		results[i] = proto.ChunkResult{Status: proto.StatusNotFound, Chunk: id}
		cs := s.chunk(id)
		switch {
		case cs == nil:
		case inventory && !cs.mu.TryLock():
			results[i].Status = proto.StatusError
		default:
			if !inventory {
				cs.mu.Lock()
			}
			if !inventory && m.View != 0 && !s.sealLocked(op, cs, m.View) || cs.suspect.Load() {
				results[i].Status = proto.StatusError
			} else {
				results[i].Status, results[i].Version, results[i].View = proto.StatusOK, cs.version, cs.view
			}
			cs.mu.Unlock()
			if cold := cs.cold; cold != nil && !cold.done.Load() {
				cold.mu.Lock()
				results[i].Cold = len(cold.refs) > 0
				cold.mu.Unlock()
			}
		}
	}
	return m.ReplyBatch(results)
}

// sealLocked stops the replica's view at a view change's seal: it adopts
// view (SetViewRule), so WriteRule refuses every write sent in an earlier
// one, wakes the writers parked on the chunk to be refused, and waits out the
// applies it admitted before (drainLocked), so the version it answers is the
// last the old view reaches here. Called and returns with cs.mu held; false
// when an apply outlasted the wait.
func (s *Server) sealLocked(op *opctx.Op, cs *chunkState, view uint64) bool {
	if SetViewRule(cs.view, view) == proto.StatusOK {
		cs.view = view
		cs.bumpLocked()
	}
	return s.drainLocked(cs, op, false)
}

// handleRepairSince serves incremental repair: the ranges modified after
// m.Version plus their current data (§4.2.1).
func (s *Server) handleRepairSince(op *opctx.Op, m *proto.Message) *proto.Message {
	cs, _, r := s.admit(op, m)
	if r != nil {
		return r
	}
	cs.mu.Lock()
	mods, ok := cs.lite.Since(m.Version)
	ver := cs.version
	cs.mu.Unlock()
	if !ok {
		// History evicted: the whole chunk must be transferred instead.
		return replyAt(m, proto.StatusFallback, ver)
	}
	out := make([]repairMod, 0, len(mods))
	for _, mod := range mods {
		buf := make([]byte, mod.Len)
		// Verified read: serving unverified bytes here would launder local
		// bit-rot into a healthy replica through the repair path.
		if r := s.readVerifiedOr(nil, m, buf, mod.Off); r != nil {
			return r
		}
		out = append(out, repairMod{Mod: mod, Data: buf})
	}
	s.repairCount.Add(1)
	r = replyAt(m, proto.StatusOK, ver)
	r.Payload = encodeRepair(out)
	return r
}

// handleFetchSegment serves segment content from a replica holding the full
// chunk (the primary): data segments are slices of the chunk, parity
// segments are encoded on the fly from the N data slices. The read runs
// under the chunk lock with every admitted write settled, so the reply is a
// snapshot at exactly the version it carries — the property segment rebuilds depend
// on. m.Seg selects the segment, m.Off is segment-relative.
func (s *Server) handleFetchSegment(op *opctx.Op, m *proto.Message) *proto.Message {
	cs, _, r := s.admit(op, m)
	if r != nil {
		return r
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	spec, segSize, seg := cs.spec, cs.spec.SegSize(), int(m.Seg)
	// Applied-but-uncommitted writes count as unsettled here: their bytes
	// are on the device, so a snapshot stamped with the committed version
	// would contain writes that version does not.
	if !s.drainLocked(cs, op, true) {
		return m.Reply(proto.StatusError)
	}
	buf := bufpool.Get(int(m.Length))
	if seg < spec.N {
		if r := s.readVerifiedOr(op, m, buf, int64(seg)*segSize+m.Off); r != nil {
			bufpool.Put(buf)
			return r
		}
	} else {
		data := make([][]byte, spec.N)
		for i := range data {
			data[i] = make([]byte, m.Length)
			if r := s.readVerifiedOr(op, m, data[i], int64(i)*segSize+m.Off); r != nil {
				bufpool.Put(buf)
				return r
			}
		}
		cs.strat.(*redundancy.RS).Code().EncodeParity(seg-spec.N, data, buf)
	}
	s.reads.Add(1)
	r = replyAt(m, proto.StatusOK, cs.version)
	r.Payload = buf
	return r
}
