package jindex

import "testing"

// FuzzIndexQuery drives an arbitrary interleaving of Insert, Invalidate,
// MergeNow, and a fresh index against the naive per-sector oracle, checking
// QueryInto and HolesInto after every step: appended extents must be
// sorted, non-overlapping, sector-exact against the model, and together
// with the holes must tile the queried range with no gap and no overlap.
// The append-into contract is checked too — entries already in dst stay
// untouched.
func FuzzIndexQuery(f *testing.F) {
	f.Add([]byte{0, 0, 1, 8, 1, 1, 0, 2, 4, 0, 3, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 16, 32, 5, 2, 0, 0, 0, 0, 0, 0, 24, 16, 9})
	f.Add([]byte{4, 0, 0, 0, 0, 0, 1, 0, 64, 3, 1, 0, 32, 32, 0})

	f.Fuzz(func(t *testing.T, program []byte) {
		ix := New(0)
		model := modelIndex{}
		var joff uint64 = 1
		const space = 1 << 12 // small key space forces heavy overlap

		sentinel := Extent{Off: MaxOff - 1, Len: 1, JOff: 424242}
		qbuf := []Extent{sentinel}
		var hbuf []Extent

		for len(program) >= 5 {
			opc := program[0]
			off := (uint32(program[1])<<8 | uint32(program[2])) % (space - 256)
			length := uint32(program[3])%255 + 1
			program = program[5:]

			switch opc % 5 {
			case 0:
				ix.Insert(off, length, joff)
				model.insert(off, length, joff)
				joff += uint64(length)
			case 1:
				ix.Invalidate(off, length)
				model.invalidate(off, length)
			case 2:
				ix.MergeNow()
			case 3:
				ix = New(0)
				model = modelIndex{}
			}

			qbuf = ix.QueryInto(qbuf[:1], off, length)
			if qbuf[0] != sentinel {
				t.Fatalf("QueryInto overwrote existing dst entry: %v", qbuf[0])
			}
			got := qbuf[1:]
			hbuf = HolesInto(hbuf[:0], off, length, got)

			covered := make(map[uint32]uint64, length)
			for i, e := range got {
				if i > 0 && e.Off < got[i-1].End() {
					t.Fatalf("extents unsorted/overlapping: %v then %v", got[i-1], e)
				}
				if e.Off < off || e.End() > off+length {
					t.Fatalf("extent %v outside query [%d,%d)", e, off, off+length)
				}
				for s := uint32(0); s < e.Len; s++ {
					covered[e.Off+s] = e.JOff + uint64(s)
				}
			}
			for _, h := range hbuf {
				for s := uint32(0); s < h.Len; s++ {
					if _, ok := covered[h.Off+s]; ok {
						t.Fatalf("sector %d both mapped and hole", h.Off+s)
					}
					covered[h.Off+s] = 0 // mark tiled
				}
			}
			if len(covered) != int(length) {
				t.Fatalf("extents+holes tile %d of %d sectors of [%d,%d)",
					len(covered), length, off, off+length)
			}
			for s := uint32(0); s < length; s++ {
				wantJ, inModel := model[off+s]
				gotJ, mapped := lookupExtent(got, off+s)
				if inModel != mapped || (mapped && gotJ != wantJ) {
					t.Fatalf("sector %d: model (%d,%v) vs index (%d,%v)",
						off+s, wantJ, inModel, gotJ, mapped)
				}
			}
		}
	})
}

func lookupExtent(extents []Extent, sec uint32) (uint64, bool) {
	for _, e := range extents {
		if sec >= e.Off && sec < e.End() {
			return e.JOff + uint64(sec-e.Off), true
		}
	}
	return 0, false
}
