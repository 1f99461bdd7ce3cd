package chunkserver

import (
	"ursa/internal/blockstore"
	"ursa/internal/proto"
)

// This file holds the one call the server makes to the master through its
// transport.MasterSession, the failure report, and its wire shape. The shape
// is defined here rather than in package master because master imports this
// package; master aliases it.

// ReportFailureReq is the payload of MOpReportFailure: the client (or a
// server) noticed a dead or lagging replica of a chunk.
type ReportFailureReq struct {
	VDisk      uint32 `json:"vdisk"`
	ChunkIndex uint32 `json:"chunkIndex"`
	// FailedAddr is the replica the reporter could not reach ("" when the
	// report is about version divergence only).
	FailedAddr string `json:"failedAddr,omitempty"`
	// View is the chunk's view the reporter acted in; a server names none.
	View uint64 `json:"view,omitempty"`
}

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

// reportFailure asks the master (fire-and-forget, through the session's
// reporter) to run the §4.2.2 view change for a chunk, naming failedAddr as
// the suspect replica — this server itself on device errors, or a segment
// holder whose RS fan-out ack never arrived. The reporter's cooldown
// collapses request storms against a dead disk into one view change; the
// master's recovery is idempotent regardless (a second report after the view
// moved finds the address already repaired).
func (s *Server) reportFailure(id blockstore.ChunkID, failedAddr string) {
	s.master.Report(id, failedAddr, func() {
		_, _ = s.master.Call(nil, proto.MOpReportFailure, ReportFailureReq{
			VDisk:      id.VDisk(),
			ChunkIndex: id.Index(),
			FailedAddr: failedAddr,
		}, nil) // nobody waits: a lost report is filed again by the next failure
	})
}
