package chunkserver

import (
	"fmt"

	"ursa/internal/blockstore"
	"ursa/internal/bufpool"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/redundancy"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// The rebuild engine: the one way a replica's content is replaced from
// outside the versioned-apply pipeline (§4.2.2 and its RS generalization).
// Whatever the source — a mirror copy, an RS segment snapshot from the
// primary, a decode from surviving holders, the modified ranges of an
// incremental repair — every rebuild runs one discipline: lock the chunk,
// drain the applies in flight, install through installLocal, adopt the
// source's version, lift the view.
//
// The drain keeps a rebuild exact. An apply admitted before the rebuild that
// lands after it puts older bytes over the installed image under a matching
// checksum; for RS it is worse than stale — parity holders apply XOR deltas,
// and a delta folded into an image that already contains it corrupts the
// stripe silently. Writes arriving during the rebuild queue at admission
// (the lock is held throughout) and resolve against the adopted version.
// Only in-flight entries are awaited: a failed entry has no I/O outstanding
// and is exactly what adoption supersedes — waiting for it would wait for a
// retry that may never come.
//
// RS sources must also be version-consistent. The primary serves
// OpFetchSegment as a snapshot stamped with its exact version, and a
// multi-piece fetch whose versions disagree is retried. Peer decode runs
// only when the primary is gone — with no write driver the surviving holders
// are quiescent — and pieces at any version but the master's target are
// rejected rather than decoded into a torn chunk.
//
// Every source is read through its admission (data.go admit), at the view
// the master's probe saw it at and at the fill's target version: a source
// that has since changed view, fallen behind or turned suspect refuses, and
// the fill fails with nothing adopted. So does a fill that a waiting delete
// may drop (the doom mark), before its next install or segment-snapshot
// fetch, and a mirror copy's wait for a piece is cut short (awaitPiece): the
// delete waits for an install at most, not for the chunk.

// cloneFetchSize is the transfer granularity of recovery copies.
const cloneFetchSize = 1 * util.MiB

// installFn writes rebuilt bytes at an offset of the local slot.
type installFn func(off int64, data []byte) error

// rebuildSource delivers one rebuild's bytes: it installs the source's
// content through install and returns the version that content represents.
// It runs with the chunk locked and no local apply in flight.
type rebuildSource func(install installFn) (version uint64, err error)

// rebuild replaces the local replica's content from src. whole says the
// source covers the entire local slot (a clone: the replica vouches for its
// content again afterwards) rather than the ranges an incremental repair
// found modified. A whole rebuild answers at the version it installed, even
// below the one the replica held (Adopted): its bytes are the source's, and
// so is its version. An incremental repair answers at the higher of the two.
func (s *Server) rebuild(op *opctx.Op, m *proto.Message, cs *chunkState, src rebuildSource, whole bool) *proto.Message {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if !s.drainLocked(cs, op, false) {
		return m.Reply(proto.StatusError)
	}
	ver, err := src(func(off int64, data []byte) error {
		if cs.doom.Load() > cs.view {
			return util.ErrNotFound // a delete may drop the replica: yield
		}
		return s.installLocal(m.Chunk, data, off)
	})
	if err != nil {
		return m.Reply(proto.StatusError)
	}
	cs.adoptVersionLocked(ver, whole)
	if m.View > cs.view {
		cs.view = m.View
	}
	if whole {
		cs.suspect.Store(false)
		s.cloneCount.Add(1)
	} else {
		s.repairCount.Add(1)
	}
	r := replyAt(m, proto.StatusOK, cs.version)
	r.View = cs.view // what a later fill reading from this replica asks for
	return r
}

// drainLocked waits until the chunk's admitted writes are settled (see
// unsettledLocked), so bytes installed or read next cannot interleave with
// an earlier write's device apply. Called and returns with cs.mu held.
func (s *Server) drainLocked(cs *chunkState, op *opctx.Op, applied bool) bool {
	deadline := s.cfg.Clock.Now().Add(s.opBudget(op, 10*s.cfg.ReplTimeout))
	for cs.unsettledLocked(applied) {
		if !cs.waitChangeLocked(op, deadline) {
			return false
		}
	}
	return true
}

// walkSlot visits a span-byte slot in cloneFetchSize pieces, in order.
func walkSlot(span int64, piece func(off int64, n int) error) error {
	for off := int64(0); off < span; off += cloneFetchSize {
		if err := piece(off, int(min(cloneFetchSize, span-off))); err != nil {
			return err
		}
	}
	return nil
}

// mirrorCopy copies the local slot byte for byte from the replica at addr —
// a full chunk, or one segment when this replica is an RS holder cloning
// from its predecessor. The master invokes it on newly allocated replicas
// during failure recovery (§4.2.2); the transfer is what Fig 12 measures.
// Every piece is an OpRead at view and at the fill's target version want.
// The copy need not be a snapshot: mirror writes are absolute, so a write
// the source applied mid-transfer is simply applied again here when it
// arrives at the adopted version — the lowest any piece was read at, which
// pipelining does not make the first one sent.
func (s *Server) mirrorCopy(op *opctx.Op, cs *chunkState, chunk blockstore.ChunkID, addr string, view, want uint64) rebuildSource {
	return func(install installFn) (uint64, error) {
		span := cs.span()
		// Pipeline the transfer: several fetches in flight while earlier
		// pieces write locally, so one chunk's recovery is bounded by the
		// slower of source disk, network, and local disk — not their sum.
		// Each fetch is a flight of its own, so each has the per-piece window
		// to itself; inflight holds those of consecutive steps from the
		// walk's current one on.
		const clonePipeline = 4
		window := s.opBudget(op, 10*s.cfg.ReplTimeout)
		var inflight []*transport.Flight
		// An early exit forgets the fetches still in flight, so their
		// responses' payload leases are released whenever they land.
		defer func() {
			for _, fl := range inflight {
				fl.Finish()
			}
		}()
		adopt := ^uint64(0)
		err := walkSlot(span, func(off int64, n int) error {
			for ahead := int64(len(inflight)); ahead < clonePipeline; ahead++ {
				at := off + ahead*cloneFetchSize
				if at >= span {
					break
				}
				fl := s.peers.Begin(op, 1, window)
				fl.Go(0, addr, &proto.Message{
					Op:      proto.OpRead,
					Chunk:   chunk,
					Off:     at,
					Length:  uint32(min(cloneFetchSize, span-at)),
					View:    view,
					Version: want,
					Flags:   proto.FlagFill,
				})
				inflight = append(inflight, fl)
			}
			fl := inflight[0]
			inflight = inflight[1:]
			// A source gone silent mid-transfer costs one window, not the
			// chunk lock for good, and a delete cuts it short; a closed
			// connection is evicted.
			resp, err := cs.awaitPiece(fl)
			fl.Finish()
			if err != nil {
				return fmt.Errorf("chunkserver: clone source %s: %w", addr, err)
			}
			defer bufpool.Put(resp.Payload)
			if resp.Status != proto.StatusOK || len(resp.Payload) != n {
				return fmt.Errorf("chunkserver: fetch %v@%d from %s: %s", chunk, off, addr, resp.Status)
			}
			adopt = min(adopt, resp.Version)
			return install(off, resp.Payload)
		})
		return adopt, err
	}
}

// segmentSnapshot rebuilds cs, an RS holder, from the primary's full chunk
// (data sliced, parity encoded on the fly): the preferred source, because
// every reply is a snapshot at exactly the version it carries. The segment
// is fetched in full before any of it is installed, in pieces that must all
// carry one version; when they do not — a write landed on the primary
// mid-fetch — the fetch starts over.
func (s *Server) segmentSnapshot(op *opctx.Op, cs *chunkState, chunk blockstore.ChunkID, primary string, view, want uint64) rebuildSource {
	return func(install installFn) (uint64, error) {
		segSize := cs.spec.SegSize()
		pieceSize := min(segSize, proto.MaxPayload)
		window := s.opBudget(op, 10*s.cfg.ReplTimeout)
		buf := make([]byte, segSize)
	fetch:
		for attempt := 0; attempt < 4; attempt++ {
			var ver uint64
			// Doomed (see doom), it stops fetching, and its first install yields.
			for off := int64(0); off < segSize && cs.doom.Load() <= cs.view; off += pieceSize {
				resp, err := s.peers.Do(op, primary, &proto.Message{
					Op:      proto.OpFetchSegment,
					Chunk:   chunk,
					Off:     off,
					Length:  uint32(min(pieceSize, segSize-off)),
					View:    view,
					Version: want,
					Flags:   proto.FlagFill,
					Seg:     uint16(cs.seg),
				}, window)
				if err != nil {
					return 0, err
				}
				intact := resp.Status == proto.StatusOK && int64(len(resp.Payload)) == min(pieceSize, segSize-off)
				if intact {
					copy(buf[off:], resp.Payload)
				}
				pieceVer := resp.Version
				bufpool.Put(resp.Payload)
				switch {
				case !intact:
					return 0, fmt.Errorf("chunkserver: fetch segment %d of %v from %s: %s", cs.seg, chunk, primary, resp.Status)
				case off == 0:
					ver = pieceVer
				case pieceVer != ver:
					continue fetch
				}
			}
			return ver, walkSlot(segSize, func(off int64, n int) error {
				return install(off, buf[off:off+int64(n)])
			})
		}
		return 0, fmt.Errorf("chunkserver: segment %d of %v from %s: every snapshot torn", cs.seg, chunk, primary)
	}
}

// peerDecode rebuilds from N surviving segment holders at exactly version
// want: segment seg of an RS holder, or — seg < 0 — every data segment at
// its chunk offset, which is a replacement primary. Each step fetches the
// same intra-segment range from every source and decodes what is missing.
func (s *Server) peerDecode(op *opctx.Op, chunk blockstore.ChunkID, strat redundancy.Strategy, sources []PieceSource, seg int, want uint64) rebuildSource {
	return func(install installFn) (uint64, error) {
		rs, ok := strat.(*redundancy.RS)
		if !ok || len(sources) < rs.Spec().N {
			return 0, fmt.Errorf("chunkserver: decode %v: %d sources for %v", chunk, len(sources), strat.Spec())
		}
		spec, code := rs.Spec(), rs.Code()
		segSize := spec.SegSize()
		lo, hi, stride := seg, seg+1, int64(0)
		if seg < 0 {
			lo, hi, stride = 0, spec.N, segSize
		}
		return want, walkSlot(segSize, func(off int64, n int) error {
			avail := s.fetchPieces(op, sources, chunk, off, n, want)
			defer putPieces(avail)
			for i := lo; i < hi; i++ {
				buf := avail[i]
				if buf == nil {
					buf = make([]byte, n)
					if err := code.Reconstruct(avail, i, buf); err != nil {
						return err
					}
				}
				if err := install(int64(i-lo)*stride+off, buf); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

// repairMods installs the ranges an incremental repair found modified after
// this replica's version (§4.2.1), in version order, and enters them in the
// local repair history. version is the source's.
func repairMods(cs *chunkState, mods []repairMod, version uint64) rebuildSource {
	return func(install installFn) (uint64, error) {
		for _, mod := range mods {
			if mod.Version <= cs.version {
				continue // already have it
			}
			if err := install(mod.Off, mod.Data); err != nil {
				return 0, err
			}
			cs.lite.Record(mod.Version, mod.Off, len(mod.Data))
		}
		return version, nil
	}
}

// fetchPieces pulls the same intra-segment range [off, off+n) from every
// source, all on one flight, and returns the pieces that arrived intact at
// exactly version wantVer, keyed by piece index. Sources are segment holders,
// so an OpRead with a segment-relative offset, at the view the master saw
// the source at, returns their local slice.
func (s *Server) fetchPieces(op *opctx.Op, sources []PieceSource, chunk blockstore.ChunkID, off int64, n int, wantVer uint64) map[int][]byte {
	fl := s.peers.Begin(op, len(sources), s.opBudget(op, 10*s.cfg.ReplTimeout))
	defer fl.Finish()
	for i, src := range sources {
		fl.Go(i, src.Addr, &proto.Message{
			Op: proto.OpRead, Chunk: chunk, Off: off, Length: uint32(n), View: src.View, Version: wantVer, Flags: proto.FlagFill,
		})
	}
	avail := make(map[int][]byte, len(sources))
	for i, resp, ok := fl.NextReply(); ok; i, resp, ok = fl.NextReply() {
		if resp == nil {
			continue
		}
		if resp.Status == proto.StatusOK && len(resp.Payload) == n && resp.Version == wantVer {
			avail[sources[i].Piece] = resp.Payload
		} else {
			bufpool.Put(resp.Payload)
		}
		proto.Recycle(resp)
	}
	return avail
}

// putPieces releases the payload leases a fetchPieces call handed out.
func putPieces(avail map[int][]byte) {
	for _, b := range avail {
		bufpool.Put(b)
	}
}
