// Package coldtier owns the log-structured cold tier's data format and
// object-store access path.
//
// Cold data lives in immutable *segments* (write-once objects in
// internal/objstore, ≤ SegmentTarget bytes each) holding concatenated
// *extents* — ExtentSize-aligned slices of a chunk's address space, each
// with its own CRC-32C. The extent table itself (which chunk ranges live
// where) is metadata: the master stores it per snapshot and per cloned
// chunk, replicated through the op log. All-zero extents are never
// written; a chunk range no ref covers reads as zeros, which is what makes
// flushing and cloning thin-provisioned images cheap.
//
// The package provides the segment writer used by chunkserver flushes, and
// the transport client used by everyone who talks to the object store
// (chunkserver demand fetch, master GC, tests).
package coldtier

import (
	"encoding/json"
	"fmt"

	"ursa/internal/blockstore"
	"ursa/internal/bufpool"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// ExtentSize is the granularity of cold data: demand fetches, CRCs, and
// zero-suppression all work on ExtentSize-aligned chunk ranges (the tail
// extent of a chunk may be shorter).
const ExtentSize = 1 * util.MiB

// SegmentTarget is the byte size a segment is packed toward. It must stay
// ≤ proto.MaxPayload: a segment PUT is one frame.
const SegmentTarget = 8 * util.MiB

// SegsPerChunk bounds how many segments one chunk flush can produce, which
// lets the master hand each chunk a fixed, contiguous segment-ID sub-range.
const SegsPerChunk = util.ChunkSize / SegmentTarget

// ExtentRef locates one cold extent: chunk range [ChunkOff, ChunkOff+Len)
// lives at [SegOff, SegOff+Len) of segment Seg, with the extent's CRC-32C
// for end-to-end verification of every fetch.
type ExtentRef struct {
	Seg      uint64 `json:"seg"`
	SegOff   int64  `json:"seg_off"`
	ChunkOff int64  `json:"chunk_off"`
	Len      int64  `json:"len"`
	CRC      uint32 `json:"crc"`
}

// Overlaps reports whether the extent intersects chunk range [off, off+n).
func (r ExtentRef) Overlaps(off, n int64) bool {
	return r.ChunkOff < off+n && off < r.ChunkOff+r.Len
}

// Client talks to one object store over the shared peer pool. Safe for
// concurrent use.
type Client struct {
	peers *transport.Peers
	addr  string
}

// NewClient returns a client for the object store at addr.
func NewClient(peers *transport.Peers, addr string) *Client {
	return &Client{peers: peers, addr: addr}
}

// Addr returns the object store's address.
func (c *Client) Addr() string { return c.addr }

// call sends the object-store request op for segment seg and returns the
// answer's status and payload lease, which the caller settles.
func (c *Client) call(o *opctx.Op, op proto.Op, seg uint64, fill func(*proto.Message)) (proto.Status, []byte, error) {
	m := proto.GetMessage()
	m.Op, m.Chunk = op, chunkID(seg)
	if fill != nil {
		fill(m)
	}
	resp, err := c.peers.Do(o, c.addr, m, 0)
	if err != nil {
		return 0, nil, err
	}
	status, payload := resp.Status, resp.Payload
	resp.Payload = nil
	proto.Recycle(resp)
	return status, payload, nil
}

// PutSegment stores data as immutable segment seg. One reference of data
// is consumed (foreign buffers unaffected, per the bufpool contract).
func (c *Client) PutSegment(op *opctx.Op, seg uint64, data []byte) error {
	status, payload, err := c.call(op, proto.OpObjPut, seg, func(m *proto.Message) { m.Payload = data })
	if err != nil {
		return err
	}
	bufpool.Put(payload)
	switch status {
	case proto.StatusOK:
		return nil
	case proto.StatusExists:
		return fmt.Errorf("coldtier: segment %#x: %w", seg, util.ErrExists)
	default:
		return fmt.Errorf("coldtier: put segment %#x: %s", seg, status)
	}
}

// GetRange reads n bytes at off of segment seg. The returned buffer is
// leased from bufpool; the caller releases it with bufpool.Put.
func (c *Client) GetRange(op *opctx.Op, seg uint64, off int64, n int) ([]byte, error) {
	status, data, err := c.call(op, proto.OpObjGet, seg, func(m *proto.Message) { m.Off, m.Length = off, uint32(n) })
	if err != nil {
		return nil, err
	}
	if status == proto.StatusOK && len(data) == n {
		return data, nil // the answer's lease becomes the caller's
	}
	bufpool.Put(data)
	if status == proto.StatusNotFound {
		return nil, fmt.Errorf("coldtier: segment %#x: %w", seg, util.ErrNotFound)
	}
	return nil, fmt.Errorf("coldtier: get segment %#x [%d,+%d): %s", seg, off, n, status)
}

// GetExtent fetches one extent and verifies its CRC. A mismatch returns
// util.ErrCorrupt — a corrupted transfer, which a retry reads clean. The
// returned buffer is leased from bufpool; the caller releases it.
func (c *Client) GetExtent(op *opctx.Op, ref ExtentRef) ([]byte, error) {
	data, err := c.GetRange(op, ref.Seg, ref.SegOff, int(ref.Len))
	if err != nil {
		return nil, err
	}
	if util.Checksum(data) != ref.CRC {
		bufpool.Put(data)
		return nil, fmt.Errorf("coldtier: extent seg %#x [%d,+%d): %w",
			ref.Seg, ref.SegOff, ref.Len, util.ErrCorrupt)
	}
	return data, nil
}

// DeleteSegment removes segment seg. The object store drains in-flight
// GETs on the segment before it disappears.
func (c *Client) DeleteSegment(op *opctx.Op, seg uint64) error {
	status, payload, err := c.call(op, proto.OpObjDelete, seg, nil)
	if err != nil {
		return err
	}
	bufpool.Put(payload)
	switch status {
	case proto.StatusOK:
		return nil
	case proto.StatusNotFound:
		return fmt.Errorf("coldtier: segment %#x: %w", seg, util.ErrNotFound)
	default:
		return fmt.Errorf("coldtier: delete segment %#x: %s", seg, status)
	}
}

// SegStat is one stored segment in a listing: its ID and total byte size.
// The JSON shape matches objstore.ObjInfo — the wire contract.
type SegStat struct {
	Seg  uint64 `json:"id"`
	Size int64  `json:"size"`
}

// ListSegments returns every stored segment's ID and size, ascending by ID.
func (c *Client) ListSegments(op *opctx.Op) ([]SegStat, error) {
	status, payload, err := c.call(op, proto.OpObjList, 0, nil)
	if err != nil {
		return nil, err
	}
	defer bufpool.Put(payload)
	if status != proto.StatusOK {
		return nil, fmt.Errorf("coldtier: list segments: %s", status)
	}
	var segs []SegStat
	return segs, json.Unmarshal(payload, &segs)
}

// chunkID adapts a segment ID to the wire's Chunk field.
func chunkID(seg uint64) blockstore.ChunkID { return blockstore.ChunkID(seg) }
