package journal

// Mod describes one modified range of a chunk, tagged with the version of
// the write that produced it.
type Mod struct {
	Version uint64
	Off     int64
	Len     int
}

// Lite is the paper's "journal lite" (§4.2.1): an in-memory ring of recent
// write positions kept by *every* replica — primary or backup — so that a
// replica recovering from transient unavailability can be repaired
// incrementally by transferring only the ranges modified since its version,
// instead of the whole 64 MB chunk.
//
// The ring costs what has been recorded: it starts empty and doubles as
// writes arrive, up to the capacity bound, and only then evicts. A replica
// of a chunk nobody has written holds no ring at all.
//
// It is not safe for concurrent use: the chunk server calls it only under
// the chunk's lock.
type Lite struct {
	bound   int   // most entries ever retained
	ring    []Mod // len(ring) <= bound
	start   int   // index of the oldest entry
	count   int
	minVer  uint64 // oldest version still queryable (entries >= minVer kept)
	haveMin bool
}

// NewLite returns a journal lite retaining the most recent capacity writes.
func NewLite(capacity int) *Lite {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Lite{bound: capacity}
}

// liteMinRing is the first ring a written chunk gets (192 B).
const liteMinRing = 8

// Record notes that version wrote [off, off+n).
func (l *Lite) Record(version uint64, off int64, n int) {
	switch {
	case l.count < len(l.ring):
	case len(l.ring) < l.bound:
		// Full but still below the bound: double. Nothing has been evicted
		// yet, so the oldest entry is at index 0 and stays there.
		ring := make([]Mod, min(max(2*len(l.ring), liteMinRing), l.bound))
		copy(ring, l.ring)
		l.ring = ring
	default:
		// Evict the oldest; repairs from before it now need full copies.
		evicted := l.ring[l.start]
		l.start = (l.start + 1) % len(l.ring)
		l.count--
		l.minVer = evicted.Version + 1
		l.haveMin = true
	}
	if !l.haveMin {
		l.minVer = version
		l.haveMin = true
	}
	l.ring[(l.start+l.count)%len(l.ring)] = Mod{Version: version, Off: off, Len: n}
	l.count++
}

// Restart forgets every entry: the history begins again at version v, as
// after a whole rebuild, so Since from below v reports it garbage-collected.
func (l *Lite) Restart(v uint64) {
	l.start, l.count = 0, 0
	l.minVer, l.haveMin = v+1, true
}

// Since returns the ranges modified by versions > fromVersion, oldest
// first. ok is false when the history has been garbage-collected past
// fromVersion, in which case the whole chunk must be transferred instead
// (§4.2.1).
func (l *Lite) Since(fromVersion uint64) (mods []Mod, ok bool) {
	if l.haveMin && fromVersion+1 < l.minVer {
		return nil, false
	}
	for i := 0; i < l.count; i++ {
		m := l.ring[(l.start+i)%len(l.ring)]
		if m.Version > fromVersion {
			mods = append(mods, m)
		}
	}
	return mods, true
}

// Len returns the number of retained entries.
func (l *Lite) Len() int {
	return l.count
}
