package main

import (
	"encoding/binary"
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted:
// the smallest sample with at least q of the samples at or below it. Raw
// samples, no buckets, so a p50 cannot flip across a histogram edge.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// rank is the 1-based nearest rank of the q-quantile among n samples.
func rank(n int, q float64) int {
	return min(max(int(math.Ceil(q*float64(n)-1e-9)), 1), n)
}

// bandMean returns the mean of the samples from the lo-quantile up to, not
// including, the hi-quantile of sorted (always at least one sample). A mean
// over a band of the tail moves far less from run to run than the single
// order statistic at its edge, which on a two-mode latency distribution can
// sit on the step between the modes; leaving out the samples beyond hi keeps
// a handful of host stalls from deciding it.
func bandMean(sorted []float64, lo, hi float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	a := rank(len(sorted), lo) - 1
	band := sorted[a:max(rank(len(sorted), hi)-1, a+1)]
	sum := 0.0
	for _, v := range band {
		sum += v
	}
	return sum / float64(len(band))
}

// median returns the middle value of vs (mean of the two middle values for
// an even count) without reordering vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rng is splitmix64: every offset, op kind and payload byte the benchmark
// uses is a pure function of the seed through it. It is the benchmark's own
// (not util.Rand) so that a change to the repository's generator cannot
// change the benchmark's inputs.
type rng struct{ s uint64 }

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// workerRNG derives worker w's private stream from the run seed, so the op
// list of each worker is independent of how the workers interleave.
func workerRNG(seed uint64, w int) *rng {
	return &rng{s: mix64(seed ^ uint64(w+1)*0xd6e8feb86659fd93)}
}

// op is one generated request: a block index into the working set and
// whether it writes.
type op struct {
	block int
	write bool
}

// opGen yields worker w's i-th op.
type opGen func(i int) op

// deck deals true exactly pct times in every 100 draws, in an order the
// seed fixes. Drawing op kinds from it, not from independent coin flips,
// keeps the realised read/write and hot/cold shares of a run at their
// nominal values, so two seeds differ in where they go, not in how much
// work they ask for.
type deck struct {
	r     *rng
	pct   int
	cards [100]bool
	next  int
}

func (d *deck) draw() bool {
	if d.next == 0 {
		for i := range d.cards {
			d.cards[i] = i < d.pct
		}
		for i := len(d.cards) - 1; i > 0; i-- {
			j := d.r.intn(i + 1)
			d.cards[i], d.cards[j] = d.cards[j], d.cards[i]
		}
	}
	v := d.cards[d.next]
	d.next = (d.next + 1) % len(d.cards)
	return v
}

// mixGen draws writePct of ops as writes and hotPct of ops inside
// [0, hotBlocks); the rest are reads, and blocks uniform over [0, blocks).
// A write lands on a block ≡ w (mod workers): each block has one writer, so
// the last acknowledged version of a block is never ambiguous.
func mixGen(seed uint64, w, workers, blocks, writePct, hotBlocks, hotPct int) opGen {
	r := workerRNG(seed, w)
	writes, hot := deck{r: r, pct: writePct}, deck{r: r, pct: hotPct}
	return func(int) op {
		o := op{write: writes.draw()}
		if hot.draw() {
			o.block = r.intn(hotBlocks)
		} else {
			o.block = r.intn(blocks)
		}
		if o.write {
			o.block = ownBlock(o.block, w, workers)
		}
		return o
	}
}

// seqGen writes blocks in address order, the workers interleaved: worker w
// takes start+w, start+w+workers, … wrapping at blocks. The seed picks the
// start, from a stream (−1) that is no worker's.
func seqGen(seed uint64, w, workers, blocks int) opGen {
	start := workerRNG(seed, -1).intn(blocks/workers) * workers
	return func(i int) op {
		return op{block: (start + i*workers + w) % blocks, write: true}
	}
}

// ownBlock moves b to the block of its group of workers that worker w
// owns; blocks is a multiple of workers, so the result stays in range.
func ownBlock(b, w, workers int) int { return b - b%workers + w }

// fillPayload writes the content of (seed, block, version) into p. Version
// 0 is the fill; the n-th write of a block carries version n.
func fillPayload(p []byte, seed uint64, block int, version uint32) {
	r := rng{s: mix64(seed ^ uint64(block)<<24 ^ uint64(version))}
	for i := 0; i+8 <= len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], r.next())
	}
}
