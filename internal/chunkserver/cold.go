package chunkserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ursa/internal/blockstore"
	"ursa/internal/bufpool"
	"ursa/internal/coldtier"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/util"
	"ursa/internal/util/backoff"
)

// Cold-tier integration: demand-fetch for cloned chunks and the snapshot
// flush that writes a chunk's content into object-store segments.
//
// A chunk created from a snapshot (CreateChunkReq.Cold non-empty) starts
// with no local data: its content lives in immutable object-store segments
// described by the extent refs. Every data-path entry (read, write,
// replicate, recovery fetch) first ensures the extents overlapping its range
// are local — fetched, CRC-verified, written to the store, and checksummed —
// then proceeds exactly as on an ordinary chunk. Ranges no ref covers read
// as zeros through the unstamped-checksum convention, so nothing is fetched
// for the thin parts of a thin image. Whether the last ref has drained is
// part of the replica's answer to the master's inventory (handleGetVersion),
// from which the master learns when it may drop the demand-fetch metadata.

// Cold-path observability.
const (
	// MetricColdFetches counts extents demand-fetched from the object store.
	MetricColdFetches = "cold-fetch"
	// MetricColdScrubSkips counts scrub ranges skipped because their bytes
	// are still object-backed (not locally verifiable).
	MetricColdScrubSkips = "scrub-cold-skips"
)

// coldFetchRetries bounds per-extent fetch attempts (transient corruption
// and stalls each count as attempts).
const coldFetchRetries = 6

// coldState tracks a cloned chunk's not-yet-local extents. It lives beside
// chunkState (assigned once at creation, the pointer immutable after) and
// has its own lock: fetches run outside the chunk admission lock so a cold
// miss never stalls unrelated same-chunk traffic.
type coldState struct {
	objAddr string

	mu   sync.Mutex
	refs []coldtier.ExtentRef // still-unfetched extents
	// inflight maps an extent's ChunkOff to the channel its fetching handler
	// closes on completion; concurrent overlapping requests wait instead of
	// double-fetching.
	inflight map[int64]chan struct{}

	// done short-circuits the fast path once every extent is local.
	done atomic.Bool
}

// ensureCold makes [off, off+n) of a cloned chunk locally backed, fetching
// any still-cold extents overlapping the range. Nil for ordinary chunks and
// after full materialization (one atomic load). Must be called before the
// chunk admission lock.
func (s *Server) ensureCold(op *opctx.Op, cs *chunkState, id blockstore.ChunkID, off int64, n int) error {
	cold := cs.cold
	if cold == nil || cold.done.Load() {
		return nil
	}
	for {
		cold.mu.Lock()
		if len(cold.refs) == 0 {
			cold.mu.Unlock()
			cold.done.Store(true)
			return nil
		}
		var toFetch []coldtier.ExtentRef
		var waitCh chan struct{}
		for _, r := range cold.refs {
			if !r.Overlaps(off, int64(n)) {
				continue
			}
			if ch, busy := cold.inflight[r.ChunkOff]; busy {
				waitCh = ch
				continue
			}
			toFetch = append(toFetch, r)
		}
		if toFetch == nil && waitCh == nil {
			cold.mu.Unlock()
			return nil // every overlapping extent is already local
		}
		if toFetch == nil {
			// Another handler is fetching everything we need: wait its round
			// out, then re-evaluate.
			cold.mu.Unlock()
			select {
			case <-waitCh:
			case <-s.cfg.Clock.After(s.opBudget(op, 10*s.cfg.ReplTimeout)):
				return fmt.Errorf("chunkserver %s: cold fetch wait %v: %w", s.cfg.Addr, id, util.ErrTimeout)
			}
			continue
		}
		if cold.inflight == nil {
			cold.inflight = make(map[int64]chan struct{})
		}
		own := make(chan struct{})
		for _, r := range toFetch {
			cold.inflight[r.ChunkOff] = own
		}
		cold.mu.Unlock()

		fetchErr := s.fetchExtents(op, id, cold.objAddr, toFetch)

		cold.mu.Lock()
		for _, r := range toFetch {
			delete(cold.inflight, r.ChunkOff)
		}
		if fetchErr == nil {
			fetched := make(map[int64]bool, len(toFetch))
			for _, r := range toFetch {
				fetched[r.ChunkOff] = true
			}
			kept := cold.refs[:0]
			for _, r := range cold.refs {
				if !fetched[r.ChunkOff] {
					kept = append(kept, r)
				}
			}
			cold.refs = kept
		}
		cold.mu.Unlock()
		close(own)
		if fetchErr != nil {
			return fetchErr
		}
		// Loop: re-evaluate for extents another handler was fetching, and to
		// run the drain check above once refs empties.
	}
}

// fetchExtents pulls the given extents from the object store into the local
// replica. Transient failures (CRC-flipped transfers, stalls) retry with
// jittered backoff seeded from the op ID. A segment that is gone
// (ErrNotFound) fails the fetch at once: GC deletes only segments no table
// names, and a retry cannot bring one back, so a miss is data loss.
func (s *Server) fetchExtents(op *opctx.Op, id blockstore.ChunkID, objAddr string, refs []coldtier.ExtentRef) error {
	st := op.Stage(opctx.StageColdFetch)
	defer st.Stop()
	cl := coldtier.NewClient(s.peers, objAddr)
	pol := backoff.Policy{Base: s.cfg.ReplTimeout / 50, Cap: s.cfg.ReplTimeout / 2}
	for _, r := range refs {
		var data []byte
		var err error
		for attempt := 0; ; attempt++ {
			data, err = cl.GetExtent(op, r)
			if err == nil {
				break
			}
			if attempt+1 >= coldFetchRetries || errors.Is(err, util.ErrNotFound) {
				return fmt.Errorf("chunkserver %s: cold fetch %v at %d: %w", s.cfg.Addr, id, r.ChunkOff, err)
			}
			s.cfg.Clock.Sleep(pol.Delay(op.ID(), attempt))
		}
		werr := s.installLocal(id, data, r.ChunkOff)
		bufpool.Put(data)
		if werr != nil {
			return werr
		}
		s.cfg.Metrics.Counter(MetricColdFetches).Inc()
	}
	return nil
}

// FlushChunk names one chunk a flush covers and the contiguous segment-ID
// range the master allocated for it.
type FlushChunk struct {
	Chunk blockstore.ChunkID `json:"chunk"`
	SegLo uint64             `json:"segLo"`
	SegHi uint64             `json:"segHi"`
}

// FlushChunksReq is the JSON payload of OpFlushChunks: write each chunk's
// content into object-store segments and return the extent tables.
type FlushChunksReq struct {
	ObjAddr string       `json:"objAddr"`
	Chunks  []FlushChunk `json:"chunks"`
}

// FlushChunksResp answers OpFlushChunks; Extents is positional with
// FlushChunksReq.Chunks.
type FlushChunksResp struct {
	Extents [][]coldtier.ExtentRef `json:"extents"`
}

// handleFlushChunks writes each named chunk's current content into
// object-store segments (snapshot flush). Reads go through the verified,
// journal-merged path, so backup journal extents are folded in and racing
// writes settle per sector before their bytes are immortalized; all-zero
// extents are suppressed by the segment writer, keeping thin images thin.
func (s *Server) handleFlushChunks(op *opctx.Op, m *proto.Message) *proto.Message {
	var req FlushChunksReq
	if err := json.Unmarshal(m.Payload, &req); err != nil {
		return m.Reply(proto.StatusError)
	}
	cl := coldtier.NewClient(s.peers, req.ObjAddr)
	out := FlushChunksResp{Extents: make([][]coldtier.ExtentRef, len(req.Chunks))}
	buf := bufpool.Get(coldtier.ExtentSize)
	defer bufpool.Put(buf)
	for i, fc := range req.Chunks {
		cs := s.chunk(fc.Chunk)
		if cs == nil {
			return m.Reply(proto.StatusNotFound)
		}
		// Snapshotting a not-yet-materialized clone: make the chunk fully
		// local first, then flush it like any other.
		if err := s.ensureCold(op, cs, fc.Chunk, 0, int(util.ChunkSize)); err != nil {
			return m.Reply(proto.StatusError)
		}
		w := coldtier.NewSegWriter(cl, op, fc.SegLo, fc.SegHi)
		for off := int64(0); off < util.ChunkSize; off += coldtier.ExtentSize {
			if err := s.readVerified(op, fc.Chunk, buf, off); err != nil {
				s.reportDeviceFailure(fc.Chunk)
				return m.Reply(proto.StatusError)
			}
			if err := w.Add(off, buf); err != nil {
				return m.Reply(proto.StatusError)
			}
		}
		refs, err := w.Close()
		if err != nil {
			return m.Reply(proto.StatusError)
		}
		out.Extents[i] = refs
	}
	payload, err := json.Marshal(out)
	if err != nil {
		return m.Reply(proto.StatusError)
	}
	r := m.Reply(proto.StatusOK)
	r.Payload = payload
	return r
}
