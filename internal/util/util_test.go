package util

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0B"},
		{511, "511B"},
		{KiB, "1.0KiB"},
		{4 * KiB, "4.0KiB"},
		{64 * MiB, "64.0MiB"},
		{3 * GiB / 2, "1.5GiB"},
		{2 * TiB, "2.0TiB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.in); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFormatCount(t *testing.T) {
	if got := FormatCount(42_500); got != "42.5K" {
		t.Errorf("FormatCount(42500) = %q", got)
	}
	if got := FormatCount(1_230_000); got != "1.23M" {
		t.Errorf("FormatCount(1.23e6) = %q", got)
	}
	if got := FormatCount(12); got != "12" {
		t.Errorf("FormatCount(12) = %q", got)
	}
}

func TestAlign(t *testing.T) {
	if got := AlignDown(1000, 512); got != 512 {
		t.Errorf("AlignDown(1000,512) = %d", got)
	}
	if got := AlignUp(1000, 512); got != 1024 {
		t.Errorf("AlignUp(1000,512) = %d", got)
	}
	if got := AlignUp(1024, 512); got != 1024 {
		t.Errorf("AlignUp(1024,512) = %d", got)
	}
	if got := CeilDiv(10, 3); got != 4 {
		t.Errorf("CeilDiv(10,3) = %d", got)
	}
}

func TestAlignProperties(t *testing.T) {
	f := func(v uint32) bool {
		x := int64(v)
		down := AlignDown(x, SectorSize)
		up := AlignUp(x, SectorSize)
		return down%SectorSize == 0 && up%SectorSize == 0 &&
			down <= x && x <= up && up-down < 2*SectorSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := NewRand(8)
	if a.Uint64() == c.Uint64() {
		t.Error("different seeds produced identical streams")
	}
}

func TestRandIntnBounds(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
		if v := r.Int63n(1 << 40); v < 0 || v >= 1<<40 {
			t.Fatalf("Int63n out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRandPerm(t *testing.T) {
	r := NewRand(3)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRandFill(t *testing.T) {
	r := NewRand(5)
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 4096} {
		b := make([]byte, n)
		r.Fill(b)
		if n >= 64 {
			// Vanishingly unlikely to be all zeros.
			allZero := true
			for _, x := range b {
				if x != 0 {
					allZero = false
					break
				}
			}
			if allZero {
				t.Fatalf("Fill(%d) produced all zeros", n)
			}
		}
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(11)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Exp()
		if v < 0 {
			t.Fatalf("Exp() negative: %v", v)
		}
		sum += v
	}
	mean := sum / n
	if mean < 0.97 || mean > 1.03 {
		t.Errorf("Exp mean = %v, want ≈1", mean)
	}
}

func TestChecksum(t *testing.T) {
	a := Checksum([]byte("hello"))
	b := Checksum([]byte("hello"))
	c := Checksum([]byte("hellp"))
	if a != b {
		t.Error("checksum not deterministic")
	}
	if a == c {
		t.Error("checksum collision on 1-byte flip")
	}
}

func TestHistQuantiles(t *testing.T) {
	h := NewHist()
	var raw []time.Duration
	r := NewRand(13)
	for i := 0; i < 50000; i++ {
		// Log-uniform between 10µs and 100ms.
		d := time.Duration(float64(10*time.Microsecond) *
			pow(1e4, r.Float64()))
		raw = append(raw, d)
		h.Observe(d)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99} {
		got := h.Quantile(q)
		want := ExactQuantile(raw, q)
		ratio := float64(got) / float64(want)
		if ratio < 0.85 || ratio > 1.15 {
			t.Errorf("Quantile(%v) = %v, exact %v (ratio %.3f)", q, got, want, ratio)
		}
	}
	if h.Count() != 50000 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Min() <= 0 || h.Max() < h.Min() {
		t.Errorf("Min/Max broken: %v/%v", h.Min(), h.Max())
	}
}

func pow(base, exp float64) float64 { return math.Pow(base, exp) }

func TestHistCDFMonotonic(t *testing.T) {
	h := NewHist()
	r := NewRand(17)
	for i := 0; i < 10000; i++ {
		h.Observe(time.Duration(r.Intn(1000)+1) * time.Microsecond)
	}
	xs, ys := h.CDF()
	if len(xs) == 0 {
		t.Fatal("empty CDF")
	}
	for i := 1; i < len(ys); i++ {
		if ys[i] < ys[i-1] || xs[i] < xs[i-1] {
			t.Fatalf("CDF not monotonic at %d", i)
		}
	}
	if ys[len(ys)-1] < 0.999 {
		t.Errorf("CDF does not reach 1: %v", ys[len(ys)-1])
	}
	_, pdf := h.PDF()
	var mass float64
	for _, p := range pdf {
		mass += p
	}
	if mass < 0.999 || mass > 1.001 {
		t.Errorf("PDF mass = %v", mass)
	}
}

func TestHistMerge(t *testing.T) {
	a, b := NewHist(), NewHist()
	a.Observe(time.Millisecond)
	b.Observe(2 * time.Millisecond)
	b.Observe(3 * time.Millisecond)
	a.Merge(b)
	if a.Count() != 3 {
		t.Errorf("merged count = %d", a.Count())
	}
	if a.Max() < 3*time.Millisecond*95/100 {
		t.Errorf("merged max = %v", a.Max())
	}
	if a.Min() > time.Millisecond {
		t.Errorf("merged min = %v", a.Min())
	}
}

func TestHistConcurrent(t *testing.T) {
	h := NewHist()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(seed uint64) {
			r := NewRand(seed)
			for i := 0; i < 5000; i++ {
				h.Observe(time.Duration(r.Intn(10000)+1) * time.Microsecond)
			}
			done <- struct{}{}
		}(uint64(g))
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if h.Count() != 40000 {
		t.Errorf("concurrent count = %d", h.Count())
	}
}
