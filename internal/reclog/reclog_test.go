package reclog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"ursa/internal/clock"
	"ursa/internal/simdisk"
	"ursa/internal/util"
)

// instantDisk is a simulated SSD that costs no time: the scan tests write
// and read thousands of records.
func instantDisk(capacity int64) simdisk.Disk {
	return simdisk.NewSSD(simdisk.SSDModel{Capacity: capacity, Parallelism: 1}, clock.Realtime)
}

// image returns h's record image with payload p, h's Len and Sum set from it.
func image(h Header, p []byte) (Header, []byte) {
	h.Len, h.Sum = len(p), util.Checksum(p)
	img := make([]byte, RecordBytes(len(p)))
	h.Encode(img)
	copy(img[HeaderSize:], p)
	return h, img
}

func TestRecordBytes(t *testing.T) {
	clock.Test(t, func() {
		f := func(raw uint32) bool {
			n := int(raw % (1 << 20))
			rb := RecordBytes(n)
			return rb >= HeaderSize+int64(n) && rb < HeaderSize+int64(n)+util.SectorSize && rb%util.SectorSize == 0
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
}

// TestVerifyRoundTrip: an encoded record verifies at its own position to
// the header it was encoded from, and at no other.
func TestVerifyRoundTrip(t *testing.T) {
	clock.Test(t, func() {
		f := func(pos, pad int64, chunk uint64, off int64, version uint64, payload []byte) bool {
			h, img := image(Header{Pos: pos, Pad: pad, Chunk: chunk, Off: off, Version: version}, payload)
			got, err := Verify(img, pos)
			_, errElsewhere := Verify(img, pos+util.SectorSize)
			return err == nil && got == h && errors.Is(errElsewhere, util.ErrCorrupt)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Error(err)
		}
	})
}

// flip returns a copy of b with bit i inverted.
func flip(b []byte, i int) []byte {
	c := bytes.Clone(b)
	c[i/8] ^= 1 << (i % 8)
	return c
}

// written is one record a scenario appended, as the scan must return it.
type written struct {
	h       Header
	payload []byte
}

// scenario appends records to a log of a few laps' worth until stop
// returns true, trimming the oldest when the log is full, and returns the
// log and the records still live in it, oldest first. Every record is
// written whole except that tear, when at least 0, writes only the first
// tear bytes of the record it is handed with stop's true: a crash inside
// that record's write. uniform gives every record one size, so each lap
// lays its records over the last lap's exactly and a scan meets a record
// of the previous lap at every position it reads.
func scenario(r *util.Rand, disk simdisk.Disk, base, size int64, uniform bool,
	stop func(i int, l *Log, img []byte) (bool, int)) (*Log, []written) {
	l := New(disk, base, size)
	var live []written
	n := 1 + r.Intn(3000)
	for i := 0; ; i++ {
		if !uniform {
			n = r.Intn(3000)
		}
		p := make([]byte, n)
		r.Fill(p)
		for !l.Fits(n) {
			oldest := live[0].h
			l.Trim(oldest.Pos + RecordBytes(oldest.Len))
			live = live[1:]
		}
		pos, pad, _ := l.Reserve(n)
		h, img := image(Header{Pos: pos, Pad: pad, Chunk: uint64(i), Off: int64(i) * 512, Version: uint64(i + 1)}, p)
		done, tear := stop(i, l, img)
		if done && tear >= 0 {
			img = img[:tear]
		}
		if err := l.WriteAt(img, pos); err != nil {
			panic(err)
		}
		if done {
			if tear < 0 {
				live = append(live, written{h, p})
			}
			return l, live
		}
		live = append(live, written{h, p})
	}
}

// scan returns every record Scan passes from the tail, and where it stopped.
func scan(t *testing.T, l *Log) ([]written, int64) {
	t.Helper()
	var got []written
	end, err := l.Scan(l.Tail(), func(h Header, p []byte) {
		got = append(got, written{h, bytes.Clone(p)})
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, end
}

func sameRecords(t *testing.T, what string, got, want []written) {
	t.Helper()
	for i := 0; i < min(len(got), len(want)); i++ {
		if got[i].h != want[i].h || !bytes.Equal(got[i].payload, want[i].payload) {
			t.Fatalf("%s: record %d is %+v, want %+v", what, i, got[i].h, want[i].h)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: scan returned %d records, want %d", what, len(got), len(want))
	}
}

// TestScanProperty is the scan's property test, over random record
// sequences of at least two laps of a 64 KiB log (on a page-misaligned
// region, so trims leave partial pages of old records behind), with random
// and with uniform record sizes:
//   - a crash inside any record's write, at any byte, scans to exactly the
//     whole records before it;
//   - a flipped bit anywhere in a live record's header sector or payload
//     stops the scan at that record;
//   - a record of the previous lap is never returned: the device holds one
//     just past every tear, and at every position of a uniform log.
func TestScanProperty(t *testing.T) {
	clock.Test(t, func() {
		const size, base = 64 * util.KiB, 3 * util.SectorSize
		laps := func(l *Log) int64 { return l.Head() / size }

		for trial := 0; trial < 400; trial++ {
			// A fresh device per trial: positions restart at 0 with each log.
			disk := instantDisk(1 * util.MiB)
			r := util.NewRand(uint64(trial) + 1)
			uniform := trial%4 == 0
			crashAt := int64(3 * size) // the first record to start past it is torn
			if r.Intn(3) == 0 {
				crashAt = r.Int63n(3 * size)
			}
			var tornHeader Header
			var tornImg []byte
			var tear int
			l, live := scenario(r, disk, base, size, uniform, func(_ int, l *Log, img []byte) (bool, int) {
				if l.Head() < crashAt {
					return false, 0
				}
				// A tear inside the header, at its CRC, or anywhere in the bytes
				// the CRCs cover.
				tornHeader, _ = decode(img)
				tornImg = img
				switch r.Intn(3) {
				case 0:
					tear = r.Intn(HeaderSize)
				case 1:
					tear = sumAt + r.Intn(4)
				default:
					tear = r.Intn(HeaderSize + tornHeader.Len)
				}
				return true, tear
			})
			want := live
			// A tear that left every covered byte as the new record has it
			// (the old bytes there happened to match) leaves the record whole.
			covered := HeaderSize + tornHeader.Len
			onDisk := make([]byte, covered)
			if err := l.ReadAt(onDisk, tornHeader.Pos); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(onDisk, tornImg[:covered]) {
				want = append(want, written{tornHeader, tornImg[HeaderSize:covered]})
			}
			got, _ := scan(t, l)
			sameRecords(t, "torn", got, want)

			if crashAt == 3*size && laps(l) < 2 {
				t.Fatalf("trial %d spans %d laps, want at least 2", trial, laps(l))
			}
			disk.Close()
		}

		for trial := 0; trial < 200; trial++ {
			disk := instantDisk(1 * util.MiB)
			r := util.NewRand(uint64(trial) + 1000)
			uniform := trial%4 == 0
			l, live := scenario(r, disk, base, size, uniform, func(_ int, l *Log, _ []byte) (bool, int) {
				return l.Head() >= 3*size, -1
			})
			got, end := scan(t, l)
			sameRecords(t, "whole", got, live)
			if end != l.Head() {
				t.Fatalf("trial %d: scan stopped at %d, head is %d", trial, end, l.Head())
			}
			if got, _ := l.Scan(l.Head(), func(Header, []byte) { t.Fatal("a scan from the head returned a record") }); got != l.Head() {
				t.Fatalf("a scan from the head stopped at %d, want %d", got, l.Head())
			}

			// One flipped bit in record i's header sector or payload.
			i := r.Intn(len(live))
			h := live[i].h
			bit := r.Intn(8 * (HeaderSize + h.Len))
			b := make([]byte, 1)
			at := h.Pos + int64(bit/8)
			if err := l.ReadAt(b, at); err != nil {
				t.Fatal(err)
			}
			b[0] ^= 1 << (bit % 8)
			if err := l.WriteAt(b, at); err != nil {
				t.Fatal(err)
			}
			got, end = scan(t, l)
			sameRecords(t, "flipped", got, live[:i])
			if want := h.Pos - h.Pad; end != want {
				t.Fatalf("trial %d: a flipped bit in record %d stopped the scan at %d, want %d", trial, i, end, want)
			}
			disk.Close()
		}
	})
}

// TestScanCrossesWrapOnlyAtPad: the scan goes on at the next lap's start
// only when the record there says its pad began where the scan stands — not
// past a record whose header rotted just before the wrap.
func TestScanCrossesWrapOnlyAtPad(t *testing.T) {
	clock.Test(t, func() {
		disk := instantDisk(1 * util.MiB)
		defer disk.Close()
		l := New(disk, 0, 16*util.KiB)
		var want []written
		for i, n := range []int{6000, 6000, 6000} { // the third does not fit the lap
			p := bytes.Repeat([]byte{byte(i + 1)}, n)
			if i == 2 {
				l.Trim(want[0].h.Pos + RecordBytes(n))
				want = want[1:]
			}
			pos, pad, ok := l.Reserve(n)
			if !ok {
				t.Fatalf("record %d does not fit", i)
			}
			h, img := image(Header{Pos: pos, Pad: pad, Chunk: 1, Version: uint64(i + 1)}, p)
			if err := l.WriteAt(img, pos); err != nil {
				t.Fatal(err)
			}
			want = append(want, written{h, p})
		}
		if h := want[1].h; h.Pos != 16*util.KiB || h.Pos-h.Pad != want[0].h.Pos+RecordBytes(6000) {
			t.Fatalf("the third record %+v does not follow a wrap pad", h)
		}
		got, _ := scan(t, l)
		sameRecords(t, "across the pad", got, want)

		// Rot the last header before the wrap: the record past the pad is
		// not returned either.
		b := make([]byte, 1)
		if err := l.ReadAt(b, want[0].h.Pos+40); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x10
		if err := l.WriteAt(b, want[0].h.Pos+40); err != nil {
			t.Fatal(err)
		}
		got, _ = scan(t, l)
		sameRecords(t, "rotted before the pad", got, nil)
	})
}

// FuzzRecord feeds Verify arbitrary bytes at an arbitrary position: it never
// panics, and accepts exactly when the magic, the header CRC, the position,
// the payload's length and the payload CRC all hold, each recomputed here
// from the layout. Then the fuzz input's fields, encoded with the bytes as
// payload, verify back to the same header.
func FuzzRecord(f *testing.F) {
	_, good := image(Header{Pos: 8192, Chunk: 5, Off: 4096, Version: 3}, []byte("payload"))
	f.Add(good, int64(8192), uint64(5), int64(4096), uint64(3))
	f.Add(good, int64(8192+64*util.KiB), uint64(5), int64(4096), uint64(3)) // the same bytes a lap later
	f.Add(make([]byte, HeaderSize), int64(0), uint64(0), int64(0), uint64(0))
	f.Add(good[:100], int64(8192), uint64(0), int64(0), uint64(0))                 // a short header
	f.Add(good[:HeaderSize+6], int64(8192), uint64(0), int64(0), uint64(0))        // a short payload
	f.Add(flip(good, 8*20), int64(8192), uint64(1), int64(-1), uint64(1<<63))      // a header bit
	f.Add(flip(good, 8*HeaderSize+3), int64(8192), uint64(1), int64(0), uint64(0)) // a payload bit

	f.Fuzz(func(t *testing.T, img []byte, pos int64, chunk uint64, off int64, version uint64) {
		h, err := Verify(img, pos)
		le := binary.LittleEndian
		ok := len(img) >= HeaderSize &&
			le.Uint64(img) == magic &&
			le.Uint32(img[sumAt:]) == util.Checksum(img[:sumAt]) &&
			int64(le.Uint64(img[8:])) == pos
		if ok {
			n := int64(le.Uint32(img[24:]))
			ok = HeaderSize+util.AlignUp(n, util.SectorSize) <= int64(len(img)) &&
				util.Checksum(img[HeaderSize:HeaderSize+n]) == le.Uint32(img[52:])
		}
		if (err == nil) != ok {
			t.Fatalf("Verify = %v, the layout says valid = %v", err, ok)
		}
		if err != nil && !errors.Is(err, util.ErrCorrupt) {
			t.Fatalf("refusal %v does not wrap ErrCorrupt", err)
		}
		if err == nil && (h.Pos != pos || h.Len != int(le.Uint32(img[24:])) || h.Chunk != le.Uint64(img[28:])) {
			t.Fatalf("accepted header %+v differs from the bytes", h)
		}

		want, rec := image(Header{Pos: pos, Pad: int64(chunk >> 20), Chunk: chunk, Off: off, Version: version}, img)
		if got, err := Verify(rec, pos); err != nil || got != want {
			t.Fatalf("round trip: %+v, %v; want %+v", got, err, want)
		}
	})
}
