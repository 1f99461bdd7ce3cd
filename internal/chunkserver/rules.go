package chunkserver

import (
	"ursa/internal/proto"
	"ursa/internal/redundancy"
)

// The replica's rules as functions of values, which the handlers call under
// the chunk lock and the view-change explorer (internal/viewcheck) calls bare:
// zircon's chunk-server contract with views added. A write applies only at
// exactly the version it expects, a read is served only at its version or
// later, and every refusal names the replica's view and version.

// WriteStep is what the version rule makes of a write.
type WriteStep int

const (
	WriteApply     WriteStep = iota // claim the write's slot and apply it
	WriteDuplicate                  // applied here already: ack, apply nothing (§4.2.1)
	WriteWait                       // a predecessor has not arrived, or the slot's claim still applies
	WriteRefused                    // answer the status returned
)

// WriteRule is §4.2.1's rule for a write of version v sent in view, at a
// replica in view at, committed to version, with slots handed out up to
// reserved; free says slot v, when below reserved, may be claimed again (its
// claim failed, or a rebuild dropped it).
func WriteRule(at, version, reserved, view, v uint64, free bool) (WriteStep, proto.Status) {
	switch {
	case at != view:
		return WriteRefused, proto.StatusStaleView
	case v+1 == version:
		return WriteDuplicate, proto.StatusOK
	case v < version:
		return WriteRefused, proto.StatusStaleVersion
	case v == reserved || v < reserved && free:
		return WriteApply, proto.StatusOK
	}
	return WriteWait, proto.StatusOK
}

// ReadRule is admit's rule: a replica in view at, committed to version,
// serves a read sent in view for version v or later.
func ReadRule(at, version, view, v uint64) proto.Status {
	switch {
	case at != view:
		return proto.StatusStaleView
	case version < v:
		return proto.StatusBehind
	}
	return proto.StatusOK
}

// Adopted is the version a rebuild that installed version v leaves a replica
// at version at: exactly v after a whole rebuild (copy, segment snapshot or
// decode), even below at — keeping at would claim writes the bytes no longer
// hold, and ack the next write at v as a duplicate without applying it — and
// the higher of the two after an incremental repair.
func Adopted(at, v uint64, whole bool) uint64 {
	if whole {
		return v
	}
	return max(at, v)
}

// Outdated reports whether a create asking for req finds a replica to be
// made afresh (createChunk): one from an earlier view (at), in another role,
// or made by another vdisk create than req's (put, the position of the log
// entry that created the replica's vdisk). The last is defence in depth: a
// vdisk ID is handed out again only by a master that lost the log entry of
// its first create, and the slot that create left must not pass for the
// second's.
func Outdated(at uint64, put Pos, spec redundancy.Spec, holder bool, seg int, req CreateChunkReq) bool {
	return at < req.View || req.Put != (Pos{}) && put != req.Put ||
		spec.IsRS() != req.Redundancy.IsRS() || holder != req.Holder || seg != req.Seg
}

// SetViewRule is OpSetView's rule at a replica in view at: no view below it.
// It is also the seal's (handleGetVersion): a replica that adopts a view
// change's seal refuses, by WriteRule, every write sent in the old view, so
// the version it answers the seal with is final for that view.
func SetViewRule(at, view uint64) proto.Status {
	if view < at {
		return proto.StatusStaleView
	}
	return proto.StatusOK
}

// FillMethod is how a fill brings a replica to its target (FillRule).
type FillMethod int

const (
	FillDecode   FillMethod = iota // from N segment holders: nothing holds the chunk whole
	FillSnapshot                   // an RS holder's segment, snapshotted from the primary
	FillRepair                     // the ranges written since the replica's version (§4.2.1)
	FillCopy                       // the whole slot, byte for byte
)

// FillRule picks a fill's method from what the slot is. A mirror replica of
// the fill's view (or a later one) at a nonzero version it vouches for is a
// laggard, whose history is a prefix of the view's. Any other mirror slot is
// copied whole: one at version 0 may be a fresh slot whose zeros are not the
// chunk's (a clone's chunk starts as cold refs), and one from an earlier view
// may hold a write the survivors never got at a version the next view reused.
func FillRule(req FillReq, spec redundancy.Spec, holder, suspect bool, at, version, view uint64) FillMethod {
	switch {
	case req.Source == "":
		return FillDecode
	case holder:
		return FillSnapshot
	case !spec.IsRS() && !suspect && at >= view && version > 0:
		return FillRepair
	}
	return FillCopy
}
