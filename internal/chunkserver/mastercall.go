package chunkserver

import (
	"encoding/json"
	"fmt"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/bufpool"
	"ursa/internal/coldtier"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/util"
)

// This file is the server's one way to talk to the master: callMaster, the
// wire shapes of the three calls it makes, and the failure reports. The
// shapes are defined here rather than in package master because master
// imports this package; master aliases them.

// ReportFailureReq is the payload of MOpReportFailure: the client (or a
// server) noticed a dead or lagging replica of a chunk.
type ReportFailureReq struct {
	VDisk      uint32 `json:"vdisk"`
	ChunkIndex uint32 `json:"chunkIndex"`
	// FailedAddr is the replica the reporter could not reach ("" when the
	// report is about version divergence only).
	FailedAddr string `json:"failedAddr,omitempty"`
}

// MaterializedReq is the payload of MOpChunkMaterialized: the replica at
// Addr reports it holds every cold extent of the chunk locally. Once every
// replica has reported, the master drops the chunk's demand-fetch metadata
// (freeing the referenced segments for GC).
type MaterializedReq struct {
	VDisk      uint32 `json:"vdisk"`
	ChunkIndex uint32 `json:"chunkIndex"`
	Addr       string `json:"addr"`
}

// ColdRefsReq is the payload of MOpGetColdRefs: a replica's cold refs went
// stale (GC rewrote a segment under it) and it needs the current table.
type ColdRefsReq struct {
	VDisk      uint32 `json:"vdisk"`
	ChunkIndex uint32 `json:"chunkIndex"`
}

// ColdRefsResp answers MOpGetColdRefs.
type ColdRefsResp struct {
	Refs []coldtier.ExtentRef `json:"refs,omitempty"`
}

// callMaster sends req (JSON) to the acting master as mop and, on StatusOK,
// decodes the reply into out when out is non-nil. It rotates through the
// master endpoints starting at the one that last answered: during a
// failover the old primary times out or redirects (StatusNotPrimary) and
// the call lands on the new primary on a later turn of the loop. The
// returned status is the first that is not a redirect; an error means no
// endpoint gave one, or the reply would not decode.
func (s *Server) callMaster(op *opctx.Op, mop proto.Op, req, out any) (proto.Status, error) {
	addrs := s.cfg.MasterAddrs
	if len(addrs) == 0 {
		return 0, fmt.Errorf("chunkserver %s: no master configured: %w", s.cfg.Addr, util.ErrNotFound)
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	start := int(s.masterIdx.Load()) % len(addrs)
	for i := range addrs {
		idx := (start + i) % len(addrs)
		// Re-sending the same payload slice is safe — JSON buffers are
		// foreign to bufpool, so the per-attempt Put inside Do is a no-op.
		resp, err := s.peers.Do(op, addrs[idx], &proto.Message{Op: mop, Payload: payload}, 0)
		if err != nil {
			continue
		}
		status := resp.Status
		if status == proto.StatusOK && out != nil {
			err = json.Unmarshal(resp.Payload, out)
		}
		bufpool.Put(resp.Payload)
		proto.Recycle(resp)
		if status == proto.StatusNotPrimary {
			continue
		}
		s.masterIdx.Store(int64(idx))
		return status, err
	}
	return 0, fmt.Errorf("chunkserver %s: no master answered %v: %w", s.cfg.Addr, mop, util.ErrTimeout)
}

// reportCooldown throttles failure reports per (chunk, address): a chunk
// taking sustained I/O errors reports at most once per cooldown, so a storm
// of failing requests cannot flood the master with duplicate view changes.
const reportCooldown = time.Second

// reportDeviceFailure handles a local device I/O failure on a chunk: the
// replica stops vouching for the chunk (see chunkState.suspect) and asks
// the master, naming this server as the failed replica, for the §4.2.2 view
// change that re-replicates it elsewhere.
func (s *Server) reportDeviceFailure(id blockstore.ChunkID) {
	if cs := s.chunk(id); cs != nil {
		cs.suspect.Store(true)
	}
	s.reportFailure(id, s.cfg.Addr)
}

// reportFailure asks the master (fire-and-forget) to run the §4.2.2 view
// change for a chunk, naming failedAddr as the suspect replica — this
// server itself on device errors, or a segment holder whose RS fan-out ack
// never arrived. Reports are throttled per (chunk, address) so request
// storms against a dead disk collapse into one view change; the master's
// recovery is idempotent regardless (a second report after the view moved
// finds the address already repaired).
func (s *Server) reportFailure(id blockstore.ChunkID, failedAddr string) {
	if len(s.cfg.MasterAddrs) == 0 {
		return
	}
	key := id.String() + "|" + failedAddr
	now := s.cfg.Clock.Now()
	s.failMu.Lock()
	if last, ok := s.lastReport[key]; ok && now.Sub(last) < reportCooldown {
		s.failMu.Unlock()
		return
	}
	s.lastReport[key] = now
	s.failMu.Unlock()

	go func() {
		// Recovery clones a whole chunk synchronously before the master
		// replies, so the window is far beyond a normal RPC's.
		op := opctx.New(s.cfg.Clock, 120*s.cfg.ReplTimeout)
		defer op.Release()
		if s.cfg.Metrics != nil {
			op = op.WithSink(s.cfg.Metrics)
		}
		_, _ = s.callMaster(op, proto.MOpReportFailure, ReportFailureReq{
			VDisk:      id.VDisk(),
			ChunkIndex: id.Index(),
			FailedAddr: failedAddr,
		}, nil) // fire-and-forget: a lost report is re-filed after the cooldown
	}()
}
