package client

import (
	"fmt"

	"ursa/internal/master"
	"ursa/internal/proto"
	"ursa/internal/util"
)

// MetricColdWarmHits counts reads over still-cold (object-backed) ranges
// that the client cache absorbed — each one is a demand fetch the warm tier
// saved the cold tier from serving.
const MetricColdWarmHits = "cold-fetch-hit-warm"

// SnapshotVDisk freezes the named vdisk's current contents as snapshot
// snapName: the master flushes every chunk into immutable object-store
// segments and records the extent table. The source vdisk keeps serving
// I/O throughout; the snapshot is crash-consistent per extent.
func (c *Client) SnapshotVDisk(vdiskName, snapName string) error {
	// A snapshot flushes every chunk of the vdisk through a chunk server
	// into the object store — bandwidth-bound maintenance, not a metadata
	// lookup — so it gets a far larger budget than a metadata call.
	op := c.newOp(40 * c.master.Budget())
	defer op.Release()
	status, err := c.master.Call(op, proto.MOpSnapshot,
		master.SnapshotReq{VDisk: vdiskName, Name: snapName}, nil)
	if err != nil {
		return err
	}
	switch status {
	case proto.StatusOK:
		return nil
	case proto.StatusExists:
		return fmt.Errorf("client: snapshot %q: %w", snapName, util.ErrExists)
	case proto.StatusNotFound:
		return fmt.Errorf("client: snapshot %q of %q: %w", snapName, vdiskName, util.ErrNotFound)
	default:
		return fmt.Errorf("client: snapshot %q of %q: %s", snapName, vdiskName, status)
	}
}

// CloneFromSnapshot provisions a new vdisk as a thin clone of a snapshot.
// The call is O(metadata): chunks are created object-backed and pull their
// bytes from the snapshot's segments on first access (copy-on-write at
// extent granularity).
func (c *Client) CloneFromSnapshot(req master.CloneReq) (*master.VDiskMeta, error) {
	var meta master.VDiskMeta
	status, err := c.master.Call(nil, proto.MOpCloneFromSnapshot, req, &meta)
	if err != nil {
		return nil, err
	}
	switch status {
	case proto.StatusOK:
		return &meta, nil
	case proto.StatusExists:
		return nil, fmt.Errorf("client: clone %q: %w", req.Name, util.ErrExists)
	case proto.StatusNotFound:
		return nil, fmt.Errorf("client: clone %q from %q: %w", req.Name, req.Snapshot, util.ErrNotFound)
	case proto.StatusQuota:
		return nil, fmt.Errorf("client: clone %q: %w", req.Name, util.ErrQuota)
	default:
		return nil, fmt.Errorf("client: clone %q from %q: %s", req.Name, req.Snapshot, status)
	}
}

// DeleteSnapshot removes a snapshot's metadata; its segments become garbage
// the master's cold GC reclaims (except extents still referenced by
// unmaterialized clones, which GC keeps live).
func (c *Client) DeleteSnapshot(name string) error {
	status, err := c.master.Call(nil, proto.MOpDeleteSnapshot,
		master.SnapshotReq{Name: name}, nil)
	if err != nil {
		return err
	}
	switch status {
	case proto.StatusOK:
		return nil
	case proto.StatusNotFound:
		return fmt.Errorf("client: snapshot %q: %w", name, util.ErrNotFound)
	default:
		return fmt.Errorf("client: delete snapshot %q: %s", name, status)
	}
}

// coldAware is the optional interface the cache probes on its wrapped
// device to attribute hits to the warm tier (see cachedDevice.block).
type coldAware interface {
	// IsCold reports whether the byte at off is still object-backed.
	IsCold(off int64) bool
	// noteWarmHit records one cache hit over a cold range.
	noteWarmHit()
}

// IsCold reports whether the byte at off maps to a chunk range that is
// still object-backed under the client's view of the metadata. The view
// lags the servers' (the master clears the refs only when a reconcile pass
// finds every replica drained, and the client sees that on its next meta
// read), so a true here is "possibly cold" — exactly what the warm-tier
// breadcrumb wants.
func (vd *VDisk) IsCold(off int64) bool {
	if off < 0 || off >= vd.meta.Size {
		return false
	}
	var arr [1]fragment
	frags := mapRange(arr[:0], &vd.meta, off, 1)
	if len(frags) == 0 || frags[0].chunk >= len(vd.chunks) {
		return false
	}
	f := frags[0]
	ch := vd.chunks[f.chunk]
	ch.mu.Lock()
	defer ch.mu.Unlock()
	for _, r := range ch.meta.Cold {
		if r.Overlaps(f.chunkOff, 1) {
			return true
		}
	}
	return false
}

func (vd *VDisk) noteWarmHit() {
	vd.coldWarmHits.Inc()
}

var _ coldAware = (*VDisk)(nil)
