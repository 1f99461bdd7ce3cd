package chunkserver

import (
	"errors"
	"fmt"

	"ursa/internal/blockstore"
	"ursa/internal/util"
)

// This file is the server's face toward internal/scrub. The scrubber stays
// decoupled from chunkserver (it sees only its Target interface); these
// methods give it exactly what a per-machine scrub pass needs: the resident
// chunk list, an idleness signal, and a verified-read probe that feeds
// detections into the same report-to-master repair path the foreground read
// path uses.

// ScrubChunks lists the chunks resident on this server's store.
func (s *Server) ScrubChunks() []blockstore.ChunkID { return s.store.Chunks() }

// ScrubSpan returns the chunk's local slot size — one segment on an RS
// segment holder — so the sweep never probes past the slot.
func (s *Server) ScrubSpan(id blockstore.ChunkID) int64 { return s.store.SlotSize(id) }

// ScrubBusy reports whether any device a scrub probe would touch is
// serving I/O right now — the scrubber's idle gate, the same queue-depth
// signal journal replay yields on. On a backup that includes the journal
// devices: probes read through the journal-merged path, so a probe issued
// while appends stream into the shared journal SSD would queue behind
// (and fatten the tail of) foreground writes.
func (s *Server) ScrubBusy() bool {
	if s.store.Disk().QueueDepth() > 0 {
		return true
	}
	return s.jset != nil && s.jset.DevicesBusy()
}

// ScrubRange verifies one range of a chunk against its checksums, reading
// through the replica's normal data path (journal-merged on backups). A
// confirmed mismatch is reported to the master for re-replication and
// returned wrapping util.ErrCorrupt; a chunk deleted mid-scrub returns
// util.ErrNotFound and is nothing to repair.
func (s *Server) ScrubRange(id blockstore.ChunkID, off int64, n int) error {
	cs := s.chunk(id)
	if cs == nil {
		return fmt.Errorf("chunkserver %s: scrub %v: %w", s.cfg.Addr, id, util.ErrNotFound)
	}
	// Object-backed ranges of a cloned chunk have no local bytes to verify;
	// skipping them is reported (counted), not silent — the segments' own
	// per-extent CRCs cover them until demand fetch materializes the range.
	// The scrub must not fetch: it would churn the cold tier for data nobody
	// has asked for.
	if cold := cs.cold; cold != nil && !cold.done.Load() {
		cold.mu.Lock()
		skip := false
		for _, r := range cold.refs {
			if r.Overlaps(off, int64(n)) {
				skip = true
				break
			}
		}
		cold.mu.Unlock()
		if skip {
			s.cfg.Metrics.Counter(MetricColdScrubSkips).Inc()
			return nil
		}
	}
	buf := make([]byte, n)
	err := s.readVerified(nil, id, buf, off)
	if err != nil && !errors.Is(err, util.ErrNotFound) {
		s.reportDeviceFailure(id)
	}
	return err
}
