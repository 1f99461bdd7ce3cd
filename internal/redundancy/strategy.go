package redundancy

import (
	"fmt"
	"slices"

	"ursa/internal/util"
)

// Spec names a redundancy policy for a vdisk. The zero value means
// mirroring (the historical default), so existing metadata and requests
// deserialize unchanged. It travels in vdisk metadata and in chunk-create
// requests, so every replica knows its own role in the stripe.
type Spec struct {
	// Kind selects the strategy: "" or "mirror" for full replicas,
	// "rs" for Reed-Solomon segment coding.
	Kind string `json:"kind,omitempty"`
	// N and M are the data and parity segment counts for Kind "rs".
	N int `json:"n,omitempty"`
	M int `json:"m,omitempty"`
}

// Strategy kinds.
const (
	KindMirror = "mirror"
	KindRS     = "rs"
)

// IsRS reports whether the spec selects Reed-Solomon coding.
func (s Spec) IsRS() bool { return s.Kind == KindRS }

// Validate rejects malformed specs. ChunkSize must divide evenly into N
// sector-aligned segments so that every logical sector maps to exactly one
// data segment sector.
func (s Spec) Validate() error {
	switch s.Kind {
	case "", KindMirror:
		return nil
	case KindRS:
		if s.N < 1 || s.M < 1 || s.N+s.M > 255 {
			return fmt.Errorf("redundancy: invalid rs(%d,%d)", s.N, s.M)
		}
		if util.ChunkSize%int64(s.N) != 0 || (util.ChunkSize/int64(s.N))%util.SectorSize != 0 {
			return fmt.Errorf("redundancy: rs(%d,%d): chunk size %d not divisible into sector-aligned segments", s.N, s.M, util.ChunkSize)
		}
		return nil
	default:
		return fmt.Errorf("redundancy: unknown kind %q", s.Kind)
	}
}

// SegSize returns the backup slot size: a full chunk for mirroring, one
// segment (ChunkSize/N) for RS.
func (s Spec) SegSize() int64 {
	if s.IsRS() {
		return util.ChunkSize / int64(s.N)
	}
	return util.ChunkSize
}

// BackupCount returns how many backup replicas a chunk needs: repl-1
// mirrors, or N+M segment holders.
func (s Spec) BackupCount(repl int) int {
	if s.IsRS() {
		return s.N + s.M
	}
	return repl - 1
}

func (s Spec) String() string {
	if s.IsRS() {
		return fmt.Sprintf("rs(%d,%d)", s.N, s.M)
	}
	return KindMirror
}

// Piece is the intersection of a logical chunk range with one data
// segment: bytes buf[BufLo:BufHi] of the caller's buffer live at
// [SegOff, SegOff+BufHi-BufLo) within segment Seg.
type Piece struct {
	Seg    int
	SegOff int64
	BufLo  int
	BufHi  int
}

// PieceRanges maps the logical chunk range [off, off+n) onto data
// segments under spec. For mirror specs it returns a single piece covering
// the whole range in "segment" 0 (the mirror copy).
func PieceRanges(spec Spec, off int64, n int) []Piece {
	seg := spec.SegSize()
	var out []Piece
	for lo := off; lo < off+int64(n); {
		si := int(lo / seg)
		end := (int64(si) + 1) * seg
		if end > off+int64(n) {
			end = off + int64(n)
		}
		out = append(out, Piece{
			Seg:    si,
			SegOff: lo - int64(si)*seg,
			BufLo:  int(lo - off),
			BufHi:  int(end - off),
		})
		lo = end
	}
	return out
}

// Shipment is one message of a strategy's backup fan-out for a write:
// deliver Data at Off of backup Target's local slot. Exactly one shipment
// targets each backup so that every holder sees every version.
type Shipment struct {
	// Target indexes the chunk's backup list.
	Target int
	// Off is the offset within the target's local slot.
	Off int64
	// Data is the payload: absolute bytes, or a parity delta when Xor is
	// set (the holder reads-XORs-writes instead of overwriting).
	Data []byte
	Xor  bool
	// Bump marks an empty version-bump shipment: the holder advances its
	// version without touching its data (its segment is unaffected by this
	// write, but version lockstep across all holders must hold).
	Bump bool
}

// Strategy turns a primary's write into its backup fan-out and decides
// when a partially acknowledged write may commit.
type Strategy interface {
	// Spec returns the policy this strategy implements.
	Spec() Spec
	// NeedsOldData reports whether PlanWrite requires the pre-write
	// contents of the target range (RS parity deltas do).
	NeedsOldData() bool
	// PlanWrite appends the per-backup shipments for writing data at off to
	// dst and returns the extended slice. old is the pre-write content of
	// the same range when NeedsOldData.
	PlanWrite(dst []Shipment, off int64, data, old []byte, backups int) ([]Shipment, error)
	// CommitOK reports whether a write that reached acks of the backups
	// (the primary's own local write succeeded, and the fan-out window
	// expired) may still commit.
	CommitOK(acks, backups int) bool
}

// New returns the strategy for spec (validating it first).
func New(spec Spec) (Strategy, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if !spec.IsRS() {
		return Mirror{}, nil
	}
	code, err := NewCode(spec.N, spec.M)
	if err != nil {
		return nil, err
	}
	return &RS{spec: spec, code: code}, nil
}

// Mirror is the historical strategy: every backup receives the full write,
// and a write commits once a majority of replicas (primary included) have
// it — the paper's all-or-majority-after-timeout rule.
type Mirror struct{}

// Spec implements Strategy.
func (Mirror) Spec() Spec { return Spec{Kind: KindMirror} }

// NeedsOldData implements Strategy.
func (Mirror) NeedsOldData() bool { return false }

// PlanWrite implements Strategy: one full copy per backup.
func (Mirror) PlanWrite(dst []Shipment, off int64, data, old []byte, backups int) ([]Shipment, error) {
	for i := 0; i < backups; i++ {
		dst = append(dst, Shipment{Target: i, Off: off, Data: data})
	}
	return dst, nil
}

// CommitOK implements Strategy: majority including the primary.
func (Mirror) CommitOK(acks, backups int) bool {
	return (acks+1)*2 > backups+1
}

// RS implements Reed-Solomon segment coding. Backup i < N holds data
// segment i (bytes [i*SegSize, (i+1)*SegSize) of the chunk); backup N+j
// holds parity segment j. Partial-stripe writes ship absolute bytes to the
// affected data holders and coefficient-scaled XOR deltas to every parity
// holder; deltas commute, so concurrent writes to different chunk ranges
// may apply in any order at a parity holder without losing updates.
type RS struct {
	spec Spec
	code *Code
}

// Spec implements Strategy.
func (r *RS) Spec() Spec { return r.spec }

// Code exposes the underlying erasure code (for reconstruction paths).
func (r *RS) Code() *Code { return r.code }

// NeedsOldData implements Strategy: parity deltas are new XOR old.
func (r *RS) NeedsOldData() bool { return true }

// PlanWrite implements Strategy. Every backup gets exactly one shipment:
// affected data holders their new absolute bytes, parity holders one
// contiguous XOR-delta covering the union of affected intra-segment ranges
// (gaps zero-padded — XOR with zero is a no-op), and unaffected data
// holders an empty version bump.
func (r *RS) PlanWrite(dst []Shipment, off int64, data, old []byte, backups int) ([]Shipment, error) {
	if backups != r.spec.N+r.spec.M {
		return nil, fmt.Errorf("redundancy: rs(%d,%d) needs %d backups, have %d", r.spec.N, r.spec.M, r.spec.N+r.spec.M, backups)
	}
	if len(old) != len(data) {
		return nil, fmt.Errorf("redundancy: old data %d bytes, want %d", len(old), len(data))
	}
	pieces := PieceRanges(r.spec, off, len(data))
	ships := slices.Grow(dst, backups)
	affected := make(map[int]bool, len(pieces))
	lo, hi := int64(-1), int64(-1)
	for _, p := range pieces {
		// Own copy, not a sub-slice of data: the fan-out may outlive the
		// caller's payload buffer (stragglers keep applying after a degraded
		// commit, duplicates resend the cached plan), and data may be a
		// pooled buffer recycled as soon as the caller releases it.
		ships = append(ships, Shipment{Target: p.Seg, Off: p.SegOff,
			Data: append([]byte(nil), data[p.BufLo:p.BufHi]...)})
		affected[p.Seg] = true
		pe := p.SegOff + int64(p.BufHi-p.BufLo)
		if lo < 0 || p.SegOff < lo {
			lo = p.SegOff
		}
		if pe > hi {
			hi = pe
		}
	}
	for j := 0; j < r.spec.M; j++ {
		delta := make([]byte, hi-lo)
		for _, p := range pieces {
			c := r.code.ParityCoeff(j, p.Seg)
			dst := delta[p.SegOff-lo : p.SegOff-lo+int64(p.BufHi-p.BufLo)]
			gfMulAddDelta(dst, data[p.BufLo:p.BufHi], old[p.BufLo:p.BufHi], c)
		}
		ships = append(ships, Shipment{Target: r.spec.N + j, Off: lo, Data: delta, Xor: true})
	}
	for i := 0; i < r.spec.N; i++ {
		if !affected[i] {
			ships = append(ships, Shipment{Target: i, Bump: true})
		}
	}
	return ships, nil
}

// CommitOK implements Strategy: with the primary's copy intact, any N
// acknowledged segment holders leave every byte reconstructible, so up to
// M dead holders never fail a write.
func (r *RS) CommitOK(acks, backups int) bool {
	return acks >= r.spec.N
}
