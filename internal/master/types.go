// Package master implements URSA's global master (§3.1): virtual-disk
// creation/opening/deletion, chunk placement, lease+lock enforcement of the
// single-client property (§4.1), and failure recovery through view changes
// (§4.2.2). The master stays off the normal I/O path.
package master

import (
	"time"

	"ursa/internal/chunkserver"
	"ursa/internal/coldtier"
	"ursa/internal/redundancy"
)

// ReplicaInfo locates one replica of a chunk.
type ReplicaInfo struct {
	// Addr is the chunk server holding the replica.
	Addr string `json:"addr"`
	// SSD marks replicas on flash; the client prefers them as primary.
	SSD bool `json:"ssd"`
}

// ChunkMeta is the placement and view of one chunk.
type ChunkMeta struct {
	View     uint64        `json:"view"`
	Replicas []ReplicaInfo `json:"replicas"`
	// Cold lists the object-backed extents of a cloned chunk that have not
	// been materialized locally yet. Replicas demand-fetch these on first
	// access; a reconcile pass that finds every current replica drained
	// clears the list. Nil for ordinary (fully local) chunks.
	Cold []coldtier.ExtentRef `json:"cold,omitempty"`
}

// VDiskMeta is everything a client needs to operate a virtual disk.
type VDiskMeta struct {
	ID   uint32 `json:"id"`
	Name string `json:"name"`
	Size int64  `json:"size"`
	// StripeGroup is the number of chunks striped together (§3.4);
	// 1 disables striping.
	StripeGroup int `json:"stripeGroup"`
	// StripeUnit is the striping block size in bytes.
	StripeUnit int64 `json:"stripeUnit"`
	// Chunks holds per-chunk placement, indexed by chunk number.
	Chunks []ChunkMeta `json:"chunks"`
	// LeaseTTL is how long a lease lasts between renewals.
	LeaseTTL time.Duration `json:"leaseTTL"`
	// Redundancy is the vdisk's backup-tier policy. The zero value is
	// mirroring; RS(N,M) chunks keep a full primary replica and spread
	// N data + M parity segments across Replicas[1:], position-keyed:
	// Replicas[1+i] holds segment i.
	Redundancy redundancy.Spec `json:"redundancy,omitempty"`
}

// Clone deep-copies the metadata. Handlers must hand clones to anything
// that runs outside the master lock (Handle marshals the reply after the
// handler returned) because view changes and materializations edit Chunks in
// place.
func (v VDiskMeta) Clone() VDiskMeta {
	out := v
	out.Chunks = make([]ChunkMeta, len(v.Chunks))
	for i, cm := range v.Chunks {
		out.Chunks[i] = cm.clone()
	}
	return out
}

// clone deep-copies one chunk's metadata.
func (c ChunkMeta) clone() ChunkMeta {
	c.Replicas = append([]ReplicaInfo(nil), c.Replicas...)
	if c.Cold != nil {
		c.Cold = append([]coldtier.ExtentRef(nil), c.Cold...)
	}
	return c
}

// CreateVDiskReq is the payload of MOpCreateVDisk.
type CreateVDiskReq struct {
	Name        string `json:"name"`
	Size        int64  `json:"size"`
	StripeGroup int    `json:"stripeGroup,omitempty"`
	StripeUnit  int64  `json:"stripeUnit,omitempty"`
	// Replication overrides the cluster default (3) when non-zero.
	Replication int `json:"replication,omitempty"`
	// Redundancy selects the backup-tier policy (zero value: mirroring).
	Redundancy redundancy.Spec `json:"redundancy,omitempty"`
}

// OpenVDiskReq is the payload of MOpOpenVDisk; Client identifies the lease
// holder.
type OpenVDiskReq struct {
	Name   string `json:"name"`
	Client string `json:"client"`
}

// LeaseReq is the payload of MOpRenewLease / MOpCloseVDisk.
type LeaseReq struct {
	ID     uint32 `json:"id"`
	Client string `json:"client"`
}

// ReportFailureReq is the payload of MOpReportFailure, the one call
// chunkservers make to the master. It is defined in package chunkserver
// (which this package imports) and aliased here, so the wire shape has one
// definition.
type ReportFailureReq = chunkserver.ReportFailureReq

// RegisterReq is the payload of MOpRegister: a chunk server joins the
// cluster. The master's state keeps it as the server's record.
type RegisterReq struct {
	Addr string `json:"addr"`
	// Machine groups servers for placement: replicas of one chunk never
	// share a machine.
	Machine string `json:"machine"`
	// SSD distinguishes primary-capable (flash) servers.
	SSD bool `json:"ssd"`
	// Capacity is the bytes the server's store may give to slots
	// (blockstore.Store.Capacity).
	Capacity int64 `json:"capacity"`
}

// GetVDiskReq is the payload of MOpGetVDisk.
type GetVDiskReq struct {
	ID   uint32 `json:"id,omitempty"`
	Name string `json:"name,omitempty"`
}

// SnapshotMeta is one vdisk snapshot: an immutable, object-backed image.
// Chunks[i] lists chunk i's cold extents (nil slices mean all-zero chunks —
// zero extents are never stored). Snapshots are crash-consistent per chunk,
// not point-in-time across the vdisk: writes racing the flush land in either
// the snapshot or the live disk per chunk, but the snapshot never changes
// once recorded.
type SnapshotMeta struct {
	ID   uint32 `json:"id"`
	Name string `json:"name"`
	// Source geometry, inherited by clones.
	Size        int64 `json:"size"`
	StripeGroup int   `json:"stripeGroup"`
	StripeUnit  int64 `json:"stripeUnit"`
	// Chunks holds per-chunk extent tables, indexed by chunk number.
	Chunks [][]coldtier.ExtentRef `json:"chunks"`
}

// Clone deep-copies the snapshot metadata.
func (s SnapshotMeta) Clone() SnapshotMeta {
	out := s
	out.Chunks = make([][]coldtier.ExtentRef, len(s.Chunks))
	for i, refs := range s.Chunks {
		if refs != nil {
			out.Chunks[i] = append([]coldtier.ExtentRef(nil), refs...)
		}
	}
	return out
}

// SnapshotReq is the payload of MOpSnapshot (VDisk = source vdisk name) and
// MOpDeleteSnapshot (VDisk ignored).
type SnapshotReq struct {
	VDisk string `json:"vdisk,omitempty"`
	Name  string `json:"name"`
}

// CloneReq is the payload of MOpCloneFromSnapshot: provision vdisk Name as a
// thin clone of snapshot Snapshot. The clone is metadata-only — chunks are
// created empty with extent-map references into the object store and
// materialize on demand.
type CloneReq struct {
	Snapshot string `json:"snapshot"`
	Name     string `json:"name"`
	// Replication overrides the cluster default (3) when non-zero.
	Replication int `json:"replication,omitempty"`
}
