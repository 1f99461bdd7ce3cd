package redundancy

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"ursa/internal/util"
)

func TestGFFieldAxioms(t *testing.T) {
	for a := 1; a < 256; a++ {
		if got := gfMul(byte(a), gfInv(byte(a))); got != 1 {
			t.Fatalf("a*inv(a) = %d for a=%d", got, a)
		}
		if got := gfDiv(byte(a), byte(a)); got != 1 {
			t.Fatalf("a/a = %d for a=%d", got, a)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a, b, c := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		if gfMul(a, b) != gfMul(b, a) {
			t.Fatalf("mul not commutative: %d %d", a, b)
		}
		if gfMul(a, gfMul(b, c)) != gfMul(gfMul(a, b), c) {
			t.Fatalf("mul not associative: %d %d %d", a, b, c)
		}
		// Distributivity over XOR (field addition).
		if gfMul(a, b^c) != gfMul(a, b)^gfMul(a, c) {
			t.Fatalf("mul not distributive: %d %d %d", a, b, c)
		}
	}
}

// buildStripe encodes random data into n+m pieces of the given length.
func buildStripe(t *testing.T, code *Code, rng *rand.Rand, pieceLen int) [][]byte {
	t.Helper()
	n, m := code.DataPieces(), code.ParityPieces()
	pieces := make([][]byte, n+m)
	for i := 0; i < n; i++ {
		pieces[i] = make([]byte, pieceLen)
		rng.Read(pieces[i])
	}
	for j := 0; j < m; j++ {
		pieces[n+j] = make([]byte, pieceLen)
		code.EncodeParity(j, pieces[:n], pieces[n+j])
	}
	return pieces
}

// TestReconstructAnySubset checks the defining RS property: every piece is
// reconstructible from every n-subset of the n+m pieces.
func TestReconstructAnySubset(t *testing.T) {
	code, err := NewCode(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	pieces := buildStripe(t, code, rng, 512)
	total := len(pieces)

	// Enumerate all n-subsets via bitmask.
	for mask := 0; mask < 1<<total; mask++ {
		if popcount(mask) != code.DataPieces() {
			continue
		}
		avail := make(map[int][]byte)
		for i := 0; i < total; i++ {
			if mask&(1<<i) != 0 {
				avail[i] = pieces[i]
			}
		}
		for want := 0; want < total; want++ {
			got := make([]byte, 512)
			if err := code.Reconstruct(avail, want, got); err != nil {
				t.Fatalf("mask %06b want %d: %v", mask, want, err)
			}
			if !bytes.Equal(got, pieces[want]) {
				t.Fatalf("mask %06b piece %d reconstructed wrong", mask, want)
			}
		}
	}
}

func popcount(x int) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestReconstructTooFewPieces(t *testing.T) {
	code, _ := NewCode(4, 2)
	avail := map[int][]byte{0: make([]byte, 8), 3: make([]byte, 8), 5: make([]byte, 8)}
	if err := code.Reconstruct(avail, 1, make([]byte, 8)); err == nil {
		t.Fatal("reconstruct from 3 of 4 pieces succeeded")
	}
}

// TestParityDeltaEqualsReencode is the partial-stripe-update invariant the
// write path depends on: old parity XOR the coefficient-scaled data delta
// equals the parity re-encoded from the new data.
func TestParityDeltaEqualsReencode(t *testing.T) {
	code, _ := NewCode(4, 2)
	rng := rand.New(rand.NewSource(3))
	const pieceLen = 256
	pieces := buildStripe(t, code, rng, pieceLen)

	// Overwrite a sub-range of data piece 2.
	seg, lo, hi := 2, 64, 192
	newData := make([]byte, hi-lo)
	rng.Read(newData)
	oldData := append([]byte(nil), pieces[seg][lo:hi]...)
	copy(pieces[seg][lo:hi], newData)

	for j := 0; j < code.ParityPieces(); j++ {
		want := make([]byte, pieceLen)
		code.EncodeParity(j, pieces[:4], want)

		got := append([]byte(nil), pieces[4+j]...)
		gfMulAddDelta(got[lo:hi], newData, oldData, code.ParityCoeff(j, seg))
		if !bytes.Equal(got, want) {
			t.Fatalf("parity %d: delta update != re-encode", j)
		}
	}
}

// TestDeltaOrderIndependence: two writes hitting the same parity range from
// different data segments may apply their deltas in either order.
func TestDeltaOrderIndependence(t *testing.T) {
	code, _ := NewCode(4, 2)
	rng := rand.New(rand.NewSource(4))
	const pieceLen = 128
	pieces := buildStripe(t, code, rng, pieceLen)

	mkDelta := func(seg int) ([]byte, []byte) {
		nb := make([]byte, pieceLen)
		rng.Read(nb)
		ob := append([]byte(nil), pieces[seg]...)
		return nb, ob
	}
	n0, o0 := mkDelta(0)
	n1, o1 := mkDelta(1)

	apply := func(parity []byte, j int, order []int) []byte {
		out := append([]byte(nil), parity...)
		for _, w := range order {
			if w == 0 {
				gfMulAddDelta(out, n0, o0, code.ParityCoeff(j, 0))
			} else {
				gfMulAddDelta(out, n1, o1, code.ParityCoeff(j, 1))
			}
		}
		return out
	}
	for j := 0; j < code.ParityPieces(); j++ {
		a := apply(pieces[4+j], j, []int{0, 1})
		b := apply(pieces[4+j], j, []int{1, 0})
		if !bytes.Equal(a, b) {
			t.Fatalf("parity %d: delta application not order independent", j)
		}
		// And both equal the re-encode of the final data state.
		final := [][]byte{n0, n1, pieces[2], pieces[3]}
		want := make([]byte, pieceLen)
		code.EncodeParity(j, final, want)
		if !bytes.Equal(a, want) {
			t.Fatalf("parity %d: commuted deltas != re-encode", j)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		spec Spec
		ok   bool
	}{
		{Spec{}, true},
		{Spec{Kind: KindMirror}, true},
		{Spec{Kind: KindRS, N: 4, M: 2}, true},
		{Spec{Kind: KindRS, N: 8, M: 3}, true},
		{Spec{Kind: KindRS, N: 0, M: 2}, false},
		{Spec{Kind: KindRS, N: 4, M: 0}, false},
		{Spec{Kind: KindRS, N: 200, M: 100}, false},
		{Spec{Kind: "raid5"}, false},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.spec, err, c.ok)
		}
	}
	if got := (Spec{Kind: KindRS, N: 4, M: 2}).SegSize(); got != util.ChunkSize/4 {
		t.Errorf("SegSize = %d", got)
	}
	if got := (Spec{}).SegSize(); got != util.ChunkSize {
		t.Errorf("mirror SegSize = %d", got)
	}
	if got := (Spec{Kind: KindRS, N: 4, M: 2}).BackupCount(3); got != 6 {
		t.Errorf("rs BackupCount = %d", got)
	}
	if got := (Spec{}).BackupCount(3); got != 2 {
		t.Errorf("mirror BackupCount = %d", got)
	}
}

func TestPieceRanges(t *testing.T) {
	spec := Spec{Kind: KindRS, N: 4, M: 2}
	seg := spec.SegSize()

	// Entirely inside one segment.
	ps := PieceRanges(spec, seg+4096, 8192)
	if len(ps) != 1 || ps[0].Seg != 1 || ps[0].SegOff != 4096 || ps[0].BufLo != 0 || ps[0].BufHi != 8192 {
		t.Fatalf("single-segment pieces = %+v", ps)
	}

	// Straddling a segment boundary.
	ps = PieceRanges(spec, seg-512, 1024)
	if len(ps) != 2 {
		t.Fatalf("straddle pieces = %+v", ps)
	}
	if ps[0].Seg != 0 || ps[0].SegOff != seg-512 || ps[0].BufHi != 512 {
		t.Fatalf("straddle piece 0 = %+v", ps[0])
	}
	if ps[1].Seg != 1 || ps[1].SegOff != 0 || ps[1].BufLo != 512 || ps[1].BufHi != 1024 {
		t.Fatalf("straddle piece 1 = %+v", ps[1])
	}

	// Mirror: one piece, unchanged offsets.
	ps = PieceRanges(Spec{}, 12345*512, 2048)
	if len(ps) != 1 || ps[0].SegOff != 12345*512 {
		t.Fatalf("mirror pieces = %+v", ps)
	}
}

// TestRSPlanWrite checks shipment planning: every backup gets exactly one
// shipment, and applying them to materialized segments matches re-encoding.
func TestRSPlanWrite(t *testing.T) {
	spec := Spec{Kind: KindRS, N: 4, M: 2}
	strat, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	rs := strat.(*RS)
	rng := rand.New(rand.NewSource(5))

	// A write straddling the segment 1 → 2 boundary.
	const wlen = 4096
	off := spec.SegSize()*2 - 1024
	data := make([]byte, wlen)
	old := make([]byte, wlen)
	rng.Read(data)
	rng.Read(old)

	ships, err := rs.PlanWrite(nil, off, data, old, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(ships) != 6 {
		t.Fatalf("got %d shipments, want 6", len(ships))
	}
	// The plan, byte for byte, as PlanWrite produced it when it still
	// returned a slice of its own (digest taken at that commit): planning
	// into a caller's slice changed where shipments go, not what they are.
	const planDigest = "e14083c9ed08ba034b8bde93851faf20bea2dd53b550f86dc4bf5cdcf5bbe383"
	if got := digestPlan(ships); got != planDigest {
		t.Errorf("plan digest %s, want %s", got, planDigest)
	}
	// Into a caller's slice the same plan follows what was already there.
	prefix := []Shipment{{Target: 99}}
	into, err := rs.PlanWrite(prefix, off, data, old, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(into) != 7 || into[0].Target != 99 || digestPlan(into[1:]) != planDigest {
		t.Errorf("plan appended to a one-entry slice: %d entries, first %+v", len(into), into[0])
	}
	seen := make(map[int]Shipment)
	for _, sh := range ships {
		if _, dup := seen[sh.Target]; dup {
			t.Fatalf("duplicate shipment for target %d", sh.Target)
		}
		seen[sh.Target] = sh
	}
	// Targets 1 and 2 are affected data holders; 0 and 3 get bumps; 4,5 xor.
	for _, tgt := range []int{1, 2} {
		if seen[tgt].Bump || seen[tgt].Xor || len(seen[tgt].Data) == 0 {
			t.Errorf("data shipment %d = %+v", tgt, seen[tgt])
		}
	}
	for _, tgt := range []int{0, 3} {
		if !seen[tgt].Bump {
			t.Errorf("target %d should be a version bump: %+v", tgt, seen[tgt])
		}
	}
	for _, tgt := range []int{4, 5} {
		if !seen[tgt].Xor || len(seen[tgt].Data) == 0 {
			t.Errorf("parity shipment %d = %+v", tgt, seen[tgt])
		}
	}

	// Verify the parity deltas algebraically: delta at intra-offset x must
	// equal sum over affected pieces of coeff*(new^old) at that position.
	pieces := PieceRanges(spec, off, wlen)
	for j := 0; j < 2; j++ {
		sh := seen[4+j]
		want := make([]byte, len(sh.Data))
		for _, p := range pieces {
			dst := want[p.SegOff-sh.Off : p.SegOff-sh.Off+int64(p.BufHi-p.BufLo)]
			gfMulAddDelta(dst, data[p.BufLo:p.BufHi], old[p.BufLo:p.BufHi], rs.Code().ParityCoeff(j, p.Seg))
		}
		if !bytes.Equal(sh.Data, want) {
			t.Fatalf("parity shipment %d delta mismatch", j)
		}
	}
}

// digestPlan hashes a plan's shipments in order: target, offset, length,
// flags and bytes of each.
func digestPlan(ships []Shipment) string {
	h := sha256.New()
	for _, sh := range ships {
		var hdr [8 + 8 + 8 + 2]byte
		binary.LittleEndian.PutUint64(hdr[0:], uint64(sh.Target))
		binary.LittleEndian.PutUint64(hdr[8:], uint64(sh.Off))
		binary.LittleEndian.PutUint64(hdr[16:], uint64(len(sh.Data)))
		if sh.Xor {
			hdr[24] = 1
		}
		if sh.Bump {
			hdr[25] = 1
		}
		h.Write(hdr[:])
		h.Write(sh.Data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestMirrorPlanIntoCallersSlice: a mirror plan that fits the caller's slice
// is allocation-free — what lets a primary keep it on its handler's frame.
func TestMirrorPlanIntoCallersSlice(t *testing.T) {
	data := make([]byte, 4096)
	var few [4]Shipment
	var ships []Shipment
	allocs := testing.AllocsPerRun(100, func() {
		ships, _ = Mirror{}.PlanWrite(few[:0], 8192, data, nil, 2)
	})
	if allocs != 0 {
		t.Errorf("mirror plan into a cap-4 slice: %v allocs/op, want 0", allocs)
	}
	if len(ships) != 2 || &ships[0] != &few[0] {
		t.Fatalf("plan of %d shipments, in the caller's array: %v", len(ships), len(ships) > 0 && &ships[0] == &few[0])
	}
	for i, sh := range ships {
		if sh.Target != i || sh.Off != 8192 || &sh.Data[0] != &data[0] || len(sh.Data) != len(data) || sh.Xor || sh.Bump {
			t.Errorf("shipment %d = {Target:%d Off:%d len:%d Xor:%v Bump:%v}", i, sh.Target, sh.Off, len(sh.Data), sh.Xor, sh.Bump)
		}
	}
	// Wider than the slice, the plan spills rather than truncates.
	if ships, _ := (Mirror{}).PlanWrite(few[:0], 0, data, nil, 6); len(ships) != 6 {
		t.Errorf("six-backup plan has %d shipments", len(ships))
	}
}

func TestCommitRules(t *testing.T) {
	var m Mirror
	// repl 3 => 2 backups: with 1 backup ack (2 of 3 replicas) commit; 0 acks no.
	if !m.CommitOK(1, 2) || m.CommitOK(0, 2) {
		t.Error("mirror commit rule wrong")
	}
	strat, _ := New(Spec{Kind: KindRS, N: 4, M: 2})
	if !strat.CommitOK(4, 6) || !strat.CommitOK(5, 6) || strat.CommitOK(3, 6) {
		t.Error("rs commit rule wrong")
	}
}
