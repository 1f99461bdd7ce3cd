// Package linearize checks per-chunk linearizability of URSA histories
// (§4, Appendix A). Under the single-client property the condition is
// simple to state and strong to check: a read must return, for every
// sector, the data of the most recent committed write — except that a
// write whose outcome the client never learned (a crash or timeout) may
// legitimately be either applied or not until a later operation resolves
// it.
package linearize

import (
	"fmt"

	"ursa/internal/util"
)

// sectorState is what a sector may legally contain.
type sectorState struct {
	committed byte // fingerprint of the last committed write
	pending   byte // fingerprint of an unresolved write, valid when hasPend
	hasPend   bool
}

// Checker validates a single-client history over one address space.
// Fingerprints compress sector contents to one byte via checksum, which is
// enough to catch stale or lost data with overwhelming probability when
// writers use distinct payloads.
type Checker struct {
	sectors map[int64]*sectorState
}

// New returns an empty checker (all sectors initially zero).
func New() *Checker {
	return &Checker{sectors: make(map[int64]*sectorState)}
}

func fingerprint(b []byte) byte {
	return byte(util.Checksum(b))
}

func (c *Checker) state(sec int64) *sectorState {
	s, ok := c.sectors[sec]
	if !ok {
		s = &sectorState{committed: fingerprint(make([]byte, util.SectorSize))}
		c.sectors[sec] = s
	}
	return s
}

// forEachSector walks the sector-aligned range.
func forEachSector(off int64, data []byte, fn func(sec int64, chunk []byte)) {
	for i := 0; i < len(data); i += util.SectorSize {
		fn((off+int64(i))/util.SectorSize, data[i:i+util.SectorSize])
	}
}

// WriteCommitted records a write whose ack the client received.
func (c *Checker) WriteCommitted(off int64, data []byte) {
	forEachSector(off, data, func(sec int64, chunk []byte) {
		s := c.state(sec)
		s.committed = fingerprint(chunk)
		s.hasPend = false
	})
}

// WriteUnresolved records a write whose outcome is unknown (the request
// failed or timed out): each sector may now hold either the old or the new
// data until a later read or committed write resolves it.
func (c *Checker) WriteUnresolved(off int64, data []byte) {
	forEachSector(off, data, func(sec int64, chunk []byte) {
		s := c.state(sec)
		s.pending = fingerprint(chunk)
		s.hasPend = true
	})
}

// CheckRead validates a read result. A sector matching an unresolved write
// resolves it (the write happened); matching the committed value resolves
// it the other way (the write was lost). Anything else is a linearizability
// violation.
func (c *Checker) CheckRead(off int64, data []byte) error {
	var firstErr error
	forEachSector(off, data, func(sec int64, chunk []byte) {
		if firstErr != nil {
			return
		}
		s := c.state(sec)
		got := fingerprint(chunk)
		switch {
		case got == s.committed && !s.hasPend:
			// Expected committed data.
		case s.hasPend && got == s.pending:
			// The unresolved write did happen: it is committed now
			// (a read observing it makes it the linearization point).
			s.committed = s.pending
			s.hasPend = false
		case s.hasPend && got == s.committed:
			// The unresolved write has not been observed; it may still
			// land later (our protocol retries), so keep it pending.
		default:
			firstErr = fmt.Errorf(
				"linearize: sector %d returned %#x; committed %#x pending(%v) %#x",
				sec, got, s.committed, s.hasPend, s.pending)
		}
	})
	return firstErr
}

// Sectors returns the number of tracked sectors (diagnostics).
func (c *Checker) Sectors() int { return len(c.sectors) }
