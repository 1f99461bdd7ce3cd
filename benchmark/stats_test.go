package main

import (
	"bytes"
	"math"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64
	}{
		{100, 0.50, 50}, {100, 0.95, 95}, {100, 0.99, 99}, {100, 1, 100},
		{10, 0.50, 5}, {10, 0.95, 10}, {7, 0.50, 4}, {1, 0.95, 1}, {200, 0.95, 190},
	} {
		if got := percentile(seq(c.n), c.q); got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

func TestBandMean(t *testing.T) {
	// p95 of 1..100 is 95 and p99 is 99: the band is 95, 96, 97, 98.
	if got := bandMean(seq(100), 0.95, 0.99); got != 96.5 {
		t.Errorf("bandMean(1..100, 0.95, 0.99) = %v, want 96.5", got)
	}
	// Both ranks are 7: the band never comes out empty.
	if got := bandMean(seq(7), 0.95, 0.99); got != 7 {
		t.Errorf("bandMean(1..7, 0.95, 0.99) = %v, want 7", got)
	}
	if got := bandMean(nil, 0.95, 0.99); got != 0 {
		t.Errorf("bandMean(nil) = %v, want 0", got)
	}
}

func TestDeckDealsExactShares(t *testing.T) {
	for _, pct := range []int{0, 30, 90, 100} {
		d := deck{r: workerRNG(9, 0), pct: pct}
		var first, second [100]bool
		for round := 0; round < 3; round++ {
			n := 0
			for i := 0; i < 100; i++ {
				v := d.draw()
				if v {
					n++
				}
				if round == 0 {
					first[i] = v
				} else if round == 1 {
					second[i] = v
				}
			}
			if n != pct {
				t.Errorf("deck(%d) dealt %d of 100", pct, n)
			}
		}
		if pct == 30 && first == second {
			t.Error("deck was not reshuffled between rounds")
		}
	}
}

func TestMedianOfWindows(t *testing.T) {
	in := []float64{9, 1, 5, 3, 7, 100, 2}
	if got := median(in); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if in[0] != 9 || in[5] != 100 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(seq(10)); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if q1, q3 := quartiles(seq(5)); q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v, %v", q1, q3)
	}
}

func opList(g opGen, n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = g(i)
	}
	return out
}

func sameOps(a, b []op) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGeneratorsRepeatPerSeed(t *testing.T) {
	const n = 2000
	for _, name := range workloadNames {
		wl := newWorkload(name)
		for w := 0; w < workers; w++ {
			a, b := opList(wl.gen(7, w), n), opList(wl.gen(7, w), n)
			if !sameOps(a, b) {
				t.Errorf("%s worker %d: same seed gave different op lists", name, w)
			}
			if sameOps(a, opList(wl.gen(8, w), n)) {
				t.Errorf("%s worker %d: seeds 7 and 8 gave the same op list", name, w)
			}
			for _, o := range a {
				if o.block < 0 || o.block >= wl.blocks {
					t.Fatalf("%s: block %d outside [0,%d)", name, o.block, wl.blocks)
				}
				if o.write && o.block%workers != w {
					t.Fatalf("%s: worker %d wrote block %d it does not own", name, w, o.block)
				}
			}
		}
		if sameOps(opList(wl.gen(7, 0), n), opList(wl.gen(7, 1), n)) {
			t.Errorf("%s: both workers got the same op list", name)
		}
	}
}

func TestGeneratorShapes(t *testing.T) {
	const n = 20000
	writes, hot := 0, 0
	wl := newWorkload("mixed-hot16k")
	for _, o := range opList(wl.gen(3, 0), n) {
		if o.write {
			writes++
		}
		if o.block < wl.hotBlocks {
			hot++
		}
	}
	if f := float64(writes) / n; math.Abs(f-0.30) > 0.02 {
		t.Errorf("mixed-hot16k write share %.3f, want 0.30", f)
	}
	// 90 % aimed at the hot region plus the uniform ops that land there.
	if f := float64(hot) / n; math.Abs(f-0.9125) > 0.02 {
		t.Errorf("mixed-hot16k hot share %.3f, want ≈0.91", f)
	}
	for _, o := range opList(newWorkload("rand-read4k").gen(3, 1), 100) {
		if o.write {
			t.Fatal("rand-read4k generated a write")
		}
	}
	sq := newWorkload("seq-write256k")
	ops := [workers][]op{}
	for w := range ops {
		ops[w] = opList(sq.gen(5, w), 300)
	}
	for i := 0; i < 300; i++ {
		for w := 0; w < workers; w++ {
			want := (ops[0][0].block + i*workers + w) % sq.blocks
			if got := ops[w][i]; got.block != want || !got.write {
				t.Fatalf("seq-write256k worker %d op %d = %+v, want block %d", w, i, got, want)
			}
		}
	}
}

func TestWorkloadOffsets(t *testing.T) {
	for _, name := range workloadNames {
		wl := newWorkload(name)
		seen := map[int64]bool{}
		for b := 0; b < wl.blocks; b++ {
			off := wl.offset(b)
			if off < 0 || off+int64(wl.blockSize) > vdiskSize || off%int64(wl.blockSize) != 0 {
				t.Fatalf("%s: block %d at bad offset %d", name, b, off)
			}
			if seen[off] {
				t.Fatalf("%s: two blocks share offset %d", name, off)
			}
			seen[off] = true
		}
	}
}

func TestFillPayload(t *testing.T) {
	a, b := make([]byte, 4096), make([]byte, 4096)
	fillPayload(a, 1, 10, 2)
	fillPayload(b, 1, 10, 2)
	if !bytes.Equal(a, b) {
		t.Fatal("same (seed, block, version) gave different payloads")
	}
	for _, other := range [][3]uint64{{2, 10, 2}, {1, 11, 2}, {1, 10, 3}} {
		fillPayload(b, other[0], int(other[1]), uint32(other[2]))
		if bytes.Equal(a, b) {
			t.Errorf("payload of %v equals that of {1 10 2}", other)
		}
	}
}
