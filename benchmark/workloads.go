package main

import (
	"ursa/internal/util"
)

// workers is the closed loop's client count: one load-generating goroutine
// per core of the 2-core host, each issuing its next op when the previous
// one returns.
const workers = 2

// windows is how many equal slices a run's measured time is cut into; rates
// are the median across them.
const windows = 7

const (
	chunksPerVDisk = vdiskSize / util.ChunkSize
	// workingSet is the filled span of the small-block workloads, a quarter
	// of it at the start of each chunk. Far larger than what 2 workers
	// overwrite in a run, so almost every journal record is live at replay;
	// small enough that the bypass fill (HDD bandwidth) lets a run set up
	// three times.
	workingSet = 32 * util.MiB
	// hotSpan is mixed-hot16k's hot region at the start of chunk 0.
	hotSpan = 4 * util.MiB
	// seqSpan is the striped span seq-write256k walks; a run covers a
	// fraction of it, so it never overwrites itself.
	seqSpan = 128 * util.MiB
)

// workload describes one set of inputs. The working set is blocks blocks of
// blockSize bytes, laid blocksPerChunk to a chunk from the start of each
// chunk, so fill and replay spread over every chunk's devices.
type workload struct {
	name           string
	blockSize      int
	blocks         int
	blocksPerChunk int
	writePct       int
	hotPct         int // share of ops inside the first hotBlocks blocks
	hotBlocks      int
	seq            bool // sequential writes over a 4 × 128 KiB striped vdisk, no fill
}

var workloadNames = []string{"rand-read4k", "rand-write4k", "mixed-hot16k", "seq-write256k"}

// newWorkload returns the named workload, or nil.
func newWorkload(name string) *workload {
	small := func(blockSize int) *workload {
		n := workingSet / blockSize
		return &workload{name: name, blockSize: blockSize, blocks: n, blocksPerChunk: n / chunksPerVDisk}
	}
	switch name {
	case "rand-read4k":
		return small(4 * util.KiB)
	case "rand-write4k":
		wl := small(4 * util.KiB)
		wl.writePct = 100
		return wl
	case "mixed-hot16k":
		wl := small(16 * util.KiB)
		wl.writePct, wl.hotPct, wl.hotBlocks = 30, 90, hotSpan/(16*util.KiB)
		return wl
	case "seq-write256k":
		n := seqSpan / (256 * util.KiB)
		return &workload{name: name, blockSize: 256 * util.KiB, blocks: n, blocksPerChunk: n,
			writePct: 100, seq: true}
	}
	return nil
}

// shrink divides the working set by div (smoke runs), keeping it a whole
// number of equal chunk regions.
func (wl *workload) shrink(div int) {
	regions := wl.blocks / wl.blocksPerChunk
	wl.blocksPerChunk = wl.blocksPerChunk / div &^ 1
	wl.blocks = wl.blocksPerChunk * regions
	wl.hotBlocks = min(wl.hotBlocks, wl.blocksPerChunk)
}

// offset maps a working-set block to its vdisk byte offset.
func (wl *workload) offset(block int) int64 {
	if wl.seq {
		return int64(block) * int64(wl.blockSize) // striping does the spreading
	}
	chunk, in := block/wl.blocksPerChunk, block%wl.blocksPerChunk
	return int64(chunk)*util.ChunkSize + int64(in)*int64(wl.blockSize)
}

// gen returns worker w's op generator for seed.
func (wl *workload) gen(seed uint64, w int) opGen {
	if wl.seq {
		return seqGen(seed, w, workers, wl.blocks)
	}
	return mixGen(seed, w, workers, wl.blocks, wl.writePct, wl.hotBlocks, wl.hotPct)
}
