package blockstore

import (
	"fmt"
	"sync"

	"ursa/internal/util"
)

// chunkSectors is the number of per-sector checksum slots a chunk needs.
const chunkSectors = util.ChunkSize / util.SectorSize

// zeroSectorCRC is the CRC-32C of an all-zero sector: the checksum every
// sector of a fresh chunk carries, since chunks read as zeros until written.
var zeroSectorCRC = util.Checksum(make([]byte, util.SectorSize))

// sumShards stripes the checksum table by chunk ID so QD32 verify/stamp
// traffic on different chunks never serializes. Must be a power of two.
const sumShards = 32

// leafSectors is the span of one leaf of a chunk's sum table: 4 MiB of chunk,
// 32 KiB of sums, 16 leaves a chunk. Smaller leaves follow sparse writes more
// closely but cost more allocations, and a leaf is allocated inside the
// write that first touches its region: the benchmark's no-fill workload
// (seq-write256k) pays every one of them in its measured windows, and its
// allocations per op decided the size (DESIGN.md "Memory follows use").
const leafSectors = 4 * util.MiB / util.SectorSize

// sumLeaf holds the sums of leafSectors consecutive sectors; sumTable is a
// chunk's leaves in order. A nil leaf — like a nil table — says every sector
// of its region still reads as zeros, so a chunk costs what has been stamped.
type (
	sumLeaf  [leafSectors]uint32
	sumTable [chunkSectors / leafSectors]*sumLeaf
)

// scratchSectors is the stack budget for fused stamp/verify: a request is
// walked in batches of scratchSectors*512 B (32 KiB, which takes the whole
// 4–8 KiB hot path in one), so no request allocates, whatever its size.
const scratchSectors = 64

// ChecksumStore keeps one CRC-32C per 512-byte sector of every resident
// chunk, covering the chunk's logical content (for a backup that includes
// data still parked in the journal — replay preserves logical content, so
// the sums stay valid across it). Write paths Stamp after the device ack;
// read paths Verify the payload they are about to return. A chunk with no
// stamped sectors verifies against the all-zero fingerprint.
//
// Sums live in memory beside the slot table, not on the data disk: what the
// subsystem defends against is the data disk lying, so keeping the sums off
// that failure domain is the point (production stores put them in NVRAM or
// a separate checksum file; here a restarted server re-attaches to the same
// Store, which models sums persisted outside the rotting device).
//
// The table is striped by chunk ID, and the hot paths are fused single
// passes: Verify snapshots the expected sums (a few words) under the shard
// lock, then walks the payload once, checksumming and comparing each
// sector as it goes; Stamp checksums into a stack scratch and copies the
// words in under the lock. Neither touches the payload under a lock or
// allocates; a request above 32 KiB repeats the pass per 32 KiB batch, so it
// is atomic per batch, not as a whole — the granularity a reader racing a
// pipelined write's stamp already has to settle at (readVerified).
//
// Memory follows use: a chunk's sums are a table of leaves (sumTable), the
// table made by the chunk's first stamp and each leaf by the first stamp
// inside its region, so a provisioned chunk holds a map entry and a sparsely
// written one holds the leaves it touched.
type ChecksumStore struct {
	shards [sumShards]sumShard
}

type sumShard struct {
	mu   sync.Mutex
	sums map[ChunkID]*sumTable // nil table = chunk exists, all sectors zero
}

func newChecksumStore() *ChecksumStore {
	c := &ChecksumStore{}
	for i := range c.shards {
		c.shards[i].sums = make(map[ChunkID]*sumTable)
	}
	return c
}

func (c *ChecksumStore) shard(id ChunkID) *sumShard {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return &c.shards[h>>58&(sumShards-1)]
}

// create registers a fresh chunk whose every sector reads as zeros.
func (c *ChecksumStore) create(id ChunkID) {
	sh := c.shard(id)
	sh.mu.Lock()
	if _, ok := sh.sums[id]; !ok {
		sh.sums[id] = nil
	}
	sh.mu.Unlock()
}

// drop forgets a deleted chunk's sums.
func (c *ChecksumStore) drop(id ChunkID) {
	sh := c.shard(id)
	sh.mu.Lock()
	delete(sh.sums, id)
	sh.mu.Unlock()
}

// sectorRange validates alignment and returns the covered sector window.
func sectorRange(id ChunkID, off int64, n int) (lo, hi int64) {
	if off%util.SectorSize != 0 || n%util.SectorSize != 0 ||
		off < 0 || off+int64(n) > util.ChunkSize {
		panic(fmt.Sprintf("blockstore: unaligned checksum range %v [%d,%d)",
			id, off, off+int64(n)))
	}
	return off / util.SectorSize, (off + int64(n)) / util.SectorSize
}

// load copies the recorded sums of sectors [lo, lo+len(want)) into want. A
// nil table is a chunk nothing has stamped.
func (t *sumTable) load(lo int64, want []uint32) {
	for len(want) > 0 {
		var leaf *sumLeaf
		if t != nil {
			leaf = t[lo/leafSectors]
		}
		at := lo % leafSectors
		n := min(int64(len(want)), leafSectors-at)
		if leaf != nil {
			copy(want[:n], leaf[at:])
		} else {
			for i := range want[:n] {
				want[i] = zeroSectorCRC
			}
		}
		want, lo = want[n:], lo+n
	}
}

// store records fresh as the sums of sectors [lo, lo+len(fresh)), making the
// leaves the range is first to touch.
func (t *sumTable) store(lo int64, fresh []uint32) {
	for len(fresh) > 0 {
		leaf, at := t[lo/leafSectors], lo%leafSectors
		if leaf == nil {
			leaf = new(sumLeaf)
			for i := range leaf {
				leaf[i] = zeroSectorCRC
			}
			t[lo/leafSectors] = leaf
		}
		n := copy(leaf[at:], fresh)
		fresh, lo = fresh[n:], lo+int64(n)
	}
}

// Stamp records the checksums of data just written at chunk-relative off.
// Stamping an unknown chunk is a no-op (it was deleted concurrently).
func (c *ChecksumStore) Stamp(id ChunkID, off int64, data []byte) {
	lo, hi := sectorRange(id, off, len(data))
	sh := c.shard(id)
	var scratch [scratchSectors]uint32
	for ; lo < hi; lo += scratchSectors {
		fresh := scratch[:min(scratchSectors, hi-lo)]
		for i := range fresh {
			fresh[i] = util.Checksum(data[:util.SectorSize])
			data = data[util.SectorSize:]
		}
		sh.mu.Lock()
		t, ok := sh.sums[id]
		if ok {
			if t == nil {
				t = new(sumTable)
				sh.sums[id] = t
			}
			t.store(lo, fresh)
		}
		sh.mu.Unlock()
		if !ok {
			return
		}
	}
}

// Verify checks data read at chunk-relative off against the recorded sums.
// A mismatch returns an error wrapping util.ErrCorrupt naming the first bad
// sector; an unknown chunk verifies vacuously (deleted concurrently).
func (c *ChecksumStore) Verify(id ChunkID, off int64, data []byte) error {
	lo, hi := sectorRange(id, off, len(data))
	sh := c.shard(id)
	var scratch [scratchSectors]uint32
	for ; lo < hi; lo += scratchSectors {
		// Snapshot the batch's expected sums — a handful of words — under
		// the shard lock, then walk its payload exactly once outside it,
		// comparing each sector's checksum as it is computed.
		want := scratch[:min(scratchSectors, hi-lo)]
		sh.mu.Lock()
		t, ok := sh.sums[id]
		if !ok {
			sh.mu.Unlock()
			return nil
		}
		t.load(lo, want)
		sh.mu.Unlock()
		for i := range want {
			g := util.Checksum(data[:util.SectorSize])
			data = data[util.SectorSize:]
			if g != want[i] {
				return fmt.Errorf("blockstore: chunk %v sector %d: checksum %08x, want %08x: %w",
					id, lo+int64(i), g, want[i], util.ErrCorrupt)
			}
		}
	}
	return nil
}

// Sum returns the recorded checksum of one sector (tests and diagnostics).
func (c *ChecksumStore) Sum(id ChunkID, sector int64) (uint32, bool) {
	sh := c.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t, ok := sh.sums[id]
	if !ok || sector < 0 || sector >= chunkSectors {
		return 0, false
	}
	var sum [1]uint32
	t.load(sector, sum[:])
	return sum[0], true
}
