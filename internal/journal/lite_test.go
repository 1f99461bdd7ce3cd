package journal

import (
	"reflect"
	"testing"

	"ursa/internal/clock"
	"ursa/internal/util"
)

// fixedLite is the journal lite as it was before the ring grew on demand: a
// ring allocated whole at its capacity. It is the reference model Lite is
// held to — same Since answers, including ok=false once history is evicted.
type fixedLite struct {
	ring    []Mod
	start   int
	count   int
	minVer  uint64
	haveMin bool
}

func (l *fixedLite) record(version uint64, off int64, n int) {
	if l.count == len(l.ring) {
		evicted := l.ring[l.start]
		l.start = (l.start + 1) % len(l.ring)
		l.count--
		l.minVer = evicted.Version + 1
		l.haveMin = true
	} else if !l.haveMin {
		l.minVer = version
		l.haveMin = true
	}
	l.ring[(l.start+l.count)%len(l.ring)] = Mod{Version: version, Off: off, Len: n}
	l.count++
}

func (l *fixedLite) since(from uint64) (mods []Mod, ok bool) {
	if l.haveMin && from+1 < l.minVer {
		return nil, false
	}
	for i := 0; i < l.count; i++ {
		if m := l.ring[(l.start+i)%len(l.ring)]; m.Version > from {
			mods = append(mods, m)
		}
	}
	return mods, true
}

// TestLiteMatchesFixedRing drives Lite and the fixed ring with the same
// random record/query sequence at a capacity that evicts at once (2), one the
// run crosses many times (16) and the production bound (4096, crossed twice),
// and requires identical answers throughout — while the lazy ring never holds
// more slots than twice what was recorded, nor more than the bound.
func TestLiteMatchesFixedRing(t *testing.T) {
	clock.Test(t, func() {
		for _, capacity := range []int{2, 16, 4096} {
			rng := util.NewRand(uint64(capacity))
			lazy, fixed := NewLite(capacity), &fixedLite{ring: make([]Mod, capacity)}
			if len(lazy.ring) != 0 {
				t.Fatalf("cap %d: a fresh Lite holds a %d-slot ring", capacity, len(lazy.ring))
			}
			version := uint64(rng.Intn(100))
			for step := 0; step < 3*capacity+200; step++ {
				version += 1 + uint64(rng.Intn(3)) // versions rise, with gaps
				off, n := int64(rng.Intn(1<<17))*util.SectorSize, (1+rng.Intn(64))*util.SectorSize
				lazy.Record(version, off, n)
				fixed.record(version, off, n)
				if lazy.Len() != fixed.count {
					t.Fatalf("cap %d step %d: Len %d, fixed ring %d", capacity, step, lazy.Len(), fixed.count)
				}
				if held := len(lazy.ring); held > capacity || held > max(2*(step+1), liteMinRing) {
					t.Fatalf("cap %d: %d slots held after %d records", capacity, held, step+1)
				}
				if capacity > 64 && step%13 != 0 {
					continue // a query scans the ring: sample them at the large bound
				}
				// Query from before the oldest, inside the history, and past it.
				var from uint64
				if back := uint64(rng.Intn(2*capacity + 4)); back < version {
					from = version - back
				}
				got, gotOK := lazy.Since(from)
				want, wantOK := fixed.since(from)
				if gotOK != wantOK || !reflect.DeepEqual(got, want) {
					t.Fatalf("cap %d step %d: Since(%d) = %d mods, %v; fixed ring %d mods, %v",
						capacity, step, from, len(got), gotOK, len(want), wantOK)
				}
			}
		}
	})
}
