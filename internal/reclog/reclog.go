// Package reclog is a circular log of self-describing records over one
// region of a simdisk.Disk: the framing under the backup journals (§3.2)
// and the one a boot scan reads back. A record is a one-sector header —
// which carries its own CRC and its log position — followed by its payload,
// sector-aligned. Positions are monotonic byte counters: a record lives at
// pos % size of the region, and never straddles the region's end.
//
// A Log has no lock: its owner serializes Reserve, Trim and the accessors.
// Verify and Scan read only the bytes they are given and the device.
package reclog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"ursa/internal/simdisk"
	"ursa/internal/util"
)

// HeaderSize is the on-device size of a record header.
const HeaderSize = util.SectorSize

// Header layout, little-endian, one sector:
//
//	0    magic    uint64 "URSARLOG"
//	8    pos      uint64 log position of the header
//	16   pad      uint64 bytes the log skipped at the wrap just before it
//	24   len      uint32 payload bytes
//	28   chunk    uint64 the journal's chunk,
//	36   off      uint64 byte offset in it,
//	44   version  uint64 and the chunk version of the write
//	52   sum      uint32 CRC-32C of the payload
//	56   zero
//	508  hdrSum   uint32 CRC-32C of bytes [0, 508)
const (
	magic = 0x55525341_524c4f47
	sumAt = HeaderSize - 4
)

// Header describes one record. Chunk, Off and Version are the journal's
// fields; the log itself reads only Pos, Pad, Len and Sum.
type Header struct {
	Pos     int64 // log position of the header
	Pad     int64 // bytes skipped before it because it did not fit the lap
	Len     int   // payload bytes
	Chunk   uint64
	Off     int64
	Version uint64
	Sum     uint32 // CRC-32C of the payload
}

// Encode writes h into the first HeaderSize bytes of buf, sealed with the
// header's own CRC.
func (h Header) Encode(buf []byte) {
	buf = buf[:HeaderSize]
	le := binary.LittleEndian
	le.PutUint64(buf[0:], magic)
	le.PutUint64(buf[8:], uint64(h.Pos))
	le.PutUint64(buf[16:], uint64(h.Pad))
	le.PutUint32(buf[24:], uint32(h.Len))
	le.PutUint64(buf[28:], h.Chunk)
	le.PutUint64(buf[36:], uint64(h.Off))
	le.PutUint64(buf[44:], h.Version)
	le.PutUint32(buf[52:], h.Sum)
	clear(buf[56:sumAt])
	le.PutUint32(buf[sumAt:], util.Checksum(buf[:sumAt]))
}

// decode parses a header sector whose magic and CRC hold.
func decode(buf []byte) (Header, error) {
	if len(buf) < HeaderSize {
		return Header{}, fmt.Errorf("short header: %d bytes", len(buf))
	}
	le := binary.LittleEndian
	if m := le.Uint64(buf[0:]); m != magic {
		return Header{}, fmt.Errorf("bad magic %#x", m)
	}
	if sum, want := util.Checksum(buf[:sumAt]), le.Uint32(buf[sumAt:]); sum != want {
		return Header{}, fmt.Errorf("header checksum %08x, want %08x", sum, want)
	}
	return Header{
		Pos:     int64(le.Uint64(buf[8:])),
		Pad:     int64(le.Uint64(buf[16:])),
		Len:     int(le.Uint32(buf[24:])),
		Chunk:   le.Uint64(buf[28:]),
		Off:     int64(le.Uint64(buf[36:])),
		Version: le.Uint64(buf[44:]),
		Sum:     le.Uint32(buf[52:]),
	}, nil
}

// RecordBytes returns the on-device footprint of a record with n payload
// bytes: the header sector plus the payload, sector-aligned.
func RecordBytes(n int) int64 {
	return HeaderSize + util.AlignUp(int64(n), util.SectorSize)
}

// Verify checks a record image — header sector, then payload — read from
// log position pos: the header's magic and CRC, that it was written for pos
// and not left there by an earlier lap, that image holds its payload, and
// the payload's CRC. A failure wraps util.ErrCorrupt.
func Verify(image []byte, pos int64) (Header, error) {
	h, err := decode(image)
	switch {
	case err != nil:
	case h.Pos != pos:
		err = fmt.Errorf("header written for position %d", h.Pos)
	case RecordBytes(h.Len) > int64(len(image)):
		err = fmt.Errorf("payload of %d bytes exceeds the %d-byte image", h.Len, len(image))
	default:
		if sum := util.Checksum(image[HeaderSize : HeaderSize+h.Len]); sum != h.Sum {
			err = fmt.Errorf("payload checksum %08x, want %08x", sum, h.Sum)
		}
	}
	if err != nil {
		return Header{}, fmt.Errorf("reclog: record at %d: %v: %w", pos, err, util.ErrCorrupt)
	}
	return h, nil
}

// Log is a circular record log over disk[base, base+size).
type Log struct {
	disk       simdisk.Disk
	base, size int64
	// head is where the next record may go, tail the start of the oldest
	// live one (or of the pad before it); head-tail <= size.
	head, tail int64
}

// New returns an empty log over disk[base, base+size), both sector-aligned.
func New(disk simdisk.Disk, base, size int64) *Log {
	if base%util.SectorSize != 0 || size%util.SectorSize != 0 || size <= 0 {
		panic("reclog: unaligned region")
	}
	return &Log{disk: disk, base: base, size: size}
}

// Disk returns the device the log lives on.
func (l *Log) Disk() simdisk.Disk { return l.disk }

// Size returns the region's capacity in bytes.
func (l *Log) Size() int64 { return l.size }

// Head returns the position the next record starts at, or pads from.
func (l *Log) Head() int64 { return l.head }

// Tail returns the position a boot scan starts from.
func (l *Log) Tail() int64 { return l.tail }

// Used returns the bytes between tail and head: live records and pads.
func (l *Log) Used() int64 { return l.head - l.tail }

// place returns where a record of n payload bytes would start, the pad the
// wrap puts before it, and whether the log has room for both.
func (l *Log) place(n int) (pos, pad int64, ok bool) {
	need := RecordBytes(n)
	if at := l.head % l.size; at+need > l.size {
		pad = l.size - at // it would straddle the region's end: start the next lap
	}
	pos = l.head + pad
	return pos, pad, pos+need-l.tail <= l.size
}

// Fits reports whether Reserve(n) would succeed now.
func (l *Log) Fits(n int) bool {
	_, _, ok := l.place(n)
	return ok
}

// Reserve claims the space of a record of n payload bytes and returns its
// position and the pad before it, which its header carries; ok is false,
// and nothing is claimed, when the log has no room.
func (l *Log) Reserve(n int) (pos, pad int64, ok bool) {
	if pos, pad, ok = l.place(n); ok {
		l.head = pos + RecordBytes(n)
	}
	return pos, pad, ok
}

// WriteAt writes p, which must not cross the region's end, at position pos.
func (l *Log) WriteAt(p []byte, pos int64) error {
	return l.disk.WriteAt(p, l.base+pos%l.size)
}

// ReadAt reads len(p) bytes at position pos; they must not cross the
// region's end.
func (l *Log) ReadAt(p []byte, pos int64) error {
	at := pos % l.size
	if at < 0 || at+int64(len(p)) > l.size {
		return fmt.Errorf("reclog: read of %d bytes at %d crosses the region: %w", len(p), at, util.ErrOutOfRange)
	}
	return l.disk.ReadAt(p, l.base+at)
}

// Trim retires the log below position to, a record boundary at most Head:
// its space is the appenders' again, and the device releases the pages
// wholly inside what is retired. Pages are aligned in device space while
// base is only sector-aligned, so the page holding the old tail was retired
// only partly by the Trim before; unless appenders have lapped into it, the
// discard re-covers its retired start so that the whole page goes, and a
// drained log pins at most the page holding its tail.
func (l *Log) Trim(to int64) {
	from := l.tail
	// The start of the device page holding the tail, or of the tail's lap.
	floor := from - min((l.base+from%l.size)%simdisk.DiscardGranule, from%l.size)
	if l.head <= floor+l.size {
		from = floor
	}
	for from < to { // split at the region's end
		n := min(to-from, l.size-from%l.size)
		simdisk.Discard(l.disk, l.base+from%l.size, n)
		from += n
	}
	l.tail = to
}

// Scan reads the log forward from position from — Tail, or any record's
// start — and calls fn with each whole record in log order: its header and
// its payload, valid only during the call. It stops at the first record
// that does not verify (torn, rotted, never written, or left by an earlier
// lap), after one lap at most, or at a device error, which it returns. It
// returns where it stopped: the end of the last record it passed to fn.
//
// A wrap pad is never written. Where the header at the scan's position does
// not verify, the scan reads the header at the next lap's start, and goes on
// only when that record verifies there and its pad begins exactly at the
// scan's position.
func (l *Log) Scan(from int64, fn func(h Header, payload []byte)) (int64, error) {
	var buf []byte
	at := from
	for {
		h, err := l.record(&buf, at, at)
		if errors.Is(err, util.ErrCorrupt) && at%l.size != 0 {
			h, err = l.record(&buf, at+l.size-at%l.size, at)
		}
		if errors.Is(err, util.ErrCorrupt) {
			return at, nil
		}
		if err != nil {
			return at, err
		}
		next := h.Pos + RecordBytes(h.Len)
		if next-from > l.size {
			return at, nil
		}
		fn(h, buf[HeaderSize:HeaderSize+h.Len])
		at = next
	}
}

// record reads the record at position pos into *buf and verifies it,
// including that it follows a record ending at prev.
func (l *Log) record(buf *[]byte, pos, prev int64) (Header, error) {
	*buf = slices.Grow((*buf)[:0], HeaderSize)[:HeaderSize]
	if err := l.ReadAt(*buf, pos); err != nil {
		return Header{}, err
	}
	h, err := decode(*buf)
	if err == nil && (h.Pos != pos || h.Pos-h.Pad != prev || pos%l.size+RecordBytes(h.Len) > l.size) {
		err = fmt.Errorf("header written for position %d after %d", h.Pos, h.Pos-h.Pad)
	}
	if err != nil {
		return Header{}, fmt.Errorf("reclog: record at %d: %v: %w", pos, err, util.ErrCorrupt)
	}
	n := int(RecordBytes(h.Len))
	*buf = slices.Grow(*buf, n-HeaderSize)[:n]
	if err := l.ReadAt((*buf)[HeaderSize:], pos+HeaderSize); err != nil {
		return Header{}, err
	}
	return Verify(*buf, pos)
}
