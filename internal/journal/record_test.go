package journal

import (
	"errors"
	"testing"
	"testing/quick"

	"ursa/internal/blockstore"
	"ursa/internal/clock"
	"ursa/internal/reclog"
	"ursa/internal/util"
)

// recordImage is the device image rec's flush writes: its header, then
// payload, with rec's length and payload CRC set from payload.
func recordImage(rec *pendingRecord, payload []byte) []byte {
	rec.dataLen, rec.sum = len(payload), util.Checksum(payload)
	img := make([]byte, reclog.RecordBytes(len(payload)))
	rec.header().Encode(img)
	copy(img[reclog.HeaderSize:], payload)
	return img
}

// TestHeaderRoundTrip: a journal record's header, framed by reclog, reads
// back with the journal's chunk, offset, length and version intact, and
// verifies as the record it was written for.
func TestHeaderRoundTrip(t *testing.T) {
	clock.Test(t, func() {
		rec := &pendingRecord{
			chunk:   blockstore.MakeChunkID(3, 9),
			off:     123 * 512,
			version: 77,
			pos:     5 * util.KiB,
			pad:     512,
		}
		payload := make([]byte, 4096)
		util.NewRand(1).Fill(payload)
		img := recordImage(rec, payload)
		h, err := reclog.Verify(img, rec.pos)
		if err != nil {
			t.Fatal(err)
		}
		if h != rec.header() {
			t.Errorf("round trip: %+v != %+v", h, rec.header())
		}
		if blockstore.ChunkID(h.Chunk) != rec.chunk || h.Off != rec.off || h.Len != 4096 || h.Version != 77 {
			t.Errorf("journal fields lost: %+v", h)
		}
		if err := verifyRecord(&Journal{name: "j"}, rec, img); err != nil {
			t.Errorf("verifyRecord: %v", err)
		}
	})
}

// TestHeaderBadMagic: a zero sector and a short image are no record.
func TestHeaderBadMagic(t *testing.T) {
	clock.Test(t, func() {
		j := &Journal{name: "j"}
		rec := &pendingRecord{chunk: blockstore.MakeChunkID(1, 0)}
		img := make([]byte, reclog.RecordBytes(512))
		if err := verifyRecord(j, rec, img); !errors.Is(err, util.ErrCorrupt) {
			t.Errorf("zero image: %v, want ErrCorrupt", err)
		}
		rec.dataLen = 512
		img = recordImage(rec, make([]byte, 512))
		if err := verifyRecord(j, rec, img[:10]); !errors.Is(err, util.ErrCorrupt) {
			t.Errorf("short image: %v, want ErrCorrupt", err)
		}
	})
}

// TestHeaderCodecProperty: every journal record verifies as itself, and
// not as a record of another version at the same place.
func TestHeaderCodecProperty(t *testing.T) {
	clock.Test(t, func() {
		j := &Journal{name: "j"}
		f := func(chunk uint64, offSec uint32, lenSec uint8, version uint64, posSec uint32, seed uint64) bool {
			rec := &pendingRecord{
				chunk:   blockstore.ChunkID(chunk),
				off:     int64(offSec%util.SectorsPerChunk) * util.SectorSize,
				version: version,
				pos:     int64(posSec) * util.SectorSize,
			}
			payload := make([]byte, (int(lenSec)%128+1)*util.SectorSize)
			util.NewRand(seed).Fill(payload)
			img := recordImage(rec, payload)
			if verifyRecord(j, rec, img) != nil {
				return false
			}
			other := *rec
			other.version++
			return errors.Is(verifyRecord(j, &other, img), util.ErrCorrupt)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Error(err)
		}
	})
}

// TestRecordBytes: an appended record takes one header sector plus its
// payload of the journal.
func TestRecordBytes(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnvStart(t, 16*util.MiB, false, false)
		defer cleanup()
		id := blockstore.MakeChunkID(1, 0)
		e.mustChunk(t, id)
		j := e.set.journals[0]
		for i, c := range []struct {
			n    int
			used int64
		}{{512, 1024}, {4096, 4608}} {
			before := j.UsedBytes()
			if err := e.set.Append(nil, id, 0, make([]byte, c.n), uint64(i+1)); err != nil {
				t.Fatal(err)
			}
			if got := j.UsedBytes() - before; got != c.used {
				t.Errorf("a %d-byte record took %d bytes, want %d", c.n, got, c.used)
			}
		}
	})
}

// TestRecordBytesProperty: a record's footprint is its header sector plus
// its payload, sector-aligned and no larger.
func TestRecordBytesProperty(t *testing.T) {
	clock.Test(t, func() {
		f := func(raw uint16) bool {
			n := int(raw)%(256*util.KiB) + 1
			rb := reclog.RecordBytes(n)
			return rb >= reclog.HeaderSize+int64(n) &&
				rb < reclog.HeaderSize+int64(n)+util.SectorSize &&
				rb%util.SectorSize == 0
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
}
