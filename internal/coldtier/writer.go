package coldtier

import (
	"fmt"

	"ursa/internal/opctx"
	"ursa/internal/util"
)

// SegWriter packs extents into write-once segments and uploads each
// segment as it fills. Segment IDs are drawn in order from a contiguous
// range the master allocated to the caller's chunk flush; the writer never
// reuses an ID, preserving the store's write-once discipline.
type SegWriter struct {
	cl        *Client
	op        *opctx.Op
	next, end uint64 // unused segment IDs: [next, end)
	buf       []byte // pending (unuploaded) segment bytes
	refs      []ExtentRef
}

// NewSegWriter returns a writer uploading through cl under op, drawing
// segment IDs from [segLo, segHi).
func NewSegWriter(cl *Client, op *opctx.Op, segLo, segHi uint64) *SegWriter {
	return &SegWriter{cl: cl, op: op, next: segLo, end: segHi}
}

// Add appends one extent covering chunk range [chunkOff, chunkOff+len).
// All-zero extents are suppressed: no bytes are stored and no ref is
// emitted — ranges without a ref read as zeros. The data is copied.
func (w *SegWriter) Add(chunkOff int64, data []byte) error {
	if len(data) == 0 || isZero(data) {
		return nil
	}
	if len(data) > SegmentTarget {
		return fmt.Errorf("coldtier: extent %d exceeds segment target %d: %w",
			len(data), SegmentTarget, util.ErrOutOfRange)
	}
	if len(w.buf) > 0 && len(w.buf)+len(data) > SegmentTarget {
		if err := w.flush(); err != nil {
			return err
		}
	}
	if w.next >= w.end {
		return fmt.Errorf("coldtier: segment ID range exhausted: %w", util.ErrQuota)
	}
	w.refs = append(w.refs, ExtentRef{
		Seg:      w.next,
		SegOff:   int64(len(w.buf)),
		ChunkOff: chunkOff,
		Len:      int64(len(data)),
		CRC:      util.Checksum(data),
	})
	w.buf = append(w.buf, data...)
	return nil
}

// flush uploads the pending segment and advances to the next ID.
func (w *SegWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	if err := w.cl.PutSegment(w.op, w.next, w.buf); err != nil {
		return err
	}
	w.next++
	w.buf = w.buf[:0]
	return nil
}

// Close uploads any pending segment and returns the refs of everything
// written. The writer must not be used afterwards.
func (w *SegWriter) Close() ([]ExtentRef, error) {
	if err := w.flush(); err != nil {
		return nil, err
	}
	return w.refs, nil
}

// isZero reports whether b is all zero bytes.
func isZero(b []byte) bool {
	for len(b) >= 8 {
		if b[0]|b[1]|b[2]|b[3]|b[4]|b[5]|b[6]|b[7] != 0 {
			return false
		}
		b = b[8:]
	}
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
