package journal

import (
	"cmp"
	"slices"
	"testing"

	"ursa/internal/blockstore"
	"ursa/internal/clock"
	"ursa/internal/jindex"
	"ursa/internal/reclog"
	"ursa/internal/util"
)

// replayWindowByHand runs one replay window of s on the caller's goroutine,
// as the replayer would with a Drain under way, and returns false when it
// parked. The set must not be started.
func replayWindowByHand(t *testing.T, s *Set) bool {
	t.Helper()
	s.mu.Lock()
	s.force++
	j := s.nextJournalLocked()
	if j == nil {
		s.force--
		s.mu.Unlock()
		t.Fatalf("nothing to replay with %d pending", s.pending)
	}
	window := s.windowLocked(j)
	s.planLocked(window)
	s.mu.Unlock()
	ok := s.replayWindow(j, window)
	s.mu.Lock()
	s.force--
	s.mu.Unlock()
	return ok
}

// drainByHand replays every pending record of s, window by window.
func drainByHand(t *testing.T, s *Set) {
	t.Helper()
	for s.Pending() > 0 {
		if !replayWindowByHand(t, s) {
			t.Fatal("a window parked")
		}
	}
}

// scannedRecord is a record a boot scan found, and the journal sector its
// payload starts at.
type scannedRecord struct {
	h    reclog.Header
	joff uint64
}

// scanJournals scans every journal of s from its tail, journal by journal
// in log order.
func scanJournals(t *testing.T, s *Set) []scannedRecord {
	t.Helper()
	var recs []scannedRecord
	for _, j := range s.journals {
		if _, err := j.log.Scan(j.log.Tail(), func(h reclog.Header, _ []byte) {
			recs = append(recs, scannedRecord{h, j.dataJOff(h.Pos)})
		}); err != nil {
			t.Fatal(err)
		}
	}
	return recs
}

// rebuildIndexes is the boot path's index rebuild: every scanned record's
// extent inserted into its chunk's index in the order given.
func rebuildIndexes(recs []scannedRecord) map[blockstore.ChunkID]*jindex.Index {
	ixs := make(map[blockstore.ChunkID]*jindex.Index)
	for _, r := range recs {
		id := blockstore.ChunkID(r.h.Chunk)
		if ixs[id] == nil {
			ixs[id] = jindex.New(autoMergeAt)
		}
		ixs[id].Insert(uint32(r.h.Off/util.SectorSize), uint32(r.h.Len/util.SectorSize), r.joff)
	}
	return ixs
}

// mapping is a chunk's index as the extents it maps, adjacent pieces that
// continue each other's journal sectors coalesced: two indexes that map
// every sector alike have equal mappings whatever their insert history.
func mapping(ix *jindex.Index) []jindex.Extent {
	var out []jindex.Extent
	if ix == nil {
		return out
	}
	for _, e := range ix.Query(0, jindex.MaxOff) {
		if n := len(out); n > 0 && out[n-1].End() == e.Off && out[n-1].JOff+uint64(out[n-1].Len) == e.JOff {
			out[n-1].Len += e.Len
			continue
		}
		out = append(out, e)
	}
	return out
}

// differing returns the chunks whose mapping in a differs from that in b.
func differing(a, b map[blockstore.ChunkID]*jindex.Index) []blockstore.ChunkID {
	var ids []blockstore.ChunkID
	for id := range a {
		if !slices.Equal(mapping(a[id]), mapping(b[id])) {
			ids = append(ids, id)
		}
	}
	for id := range b {
		if _, ok := a[id]; !ok && len(mapping(b[id])) > 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestScanRebuildsIndex is the record log's boot acceptance: with the
// replayer held, a seeded run of journaled writes — overlapping rewrites of
// two chunks, an SSD journal that has wrapped, and writes too large for what
// is left of it overflowing into the HDD journal while smaller later ones
// still fit the SSD — leaves logs whose scan from each tail, ordered by
// chunk version, rebuilds an index equal to the live one for every chunk:
// the same extents mapping to the same journal sectors. In journal order
// instead the rebuild is wrong, because the HDD journal holds writes older
// than SSD records of the same extents.
func TestScanRebuildsIndex(t *testing.T) {
	clock.Test(t, func() {
		const ssdSize = 192 * util.KiB
		e, cleanup := newEnvStart(t, ssdSize, true, false)
		defer cleanup()
		chunks := []blockstore.ChunkID{blockstore.MakeChunkID(1, 0), blockstore.MakeChunkID(1, 1)}
		for _, id := range chunks {
			e.mustChunk(t, id)
		}
		ssd := e.set.journals[0]
		r := util.NewRand(18)
		versions := make(map[blockstore.ChunkID]uint64)
		at := func() (blockstore.ChunkID, int64) {
			return chunks[r.Intn(len(chunks))], util.AlignDown(r.Int63n(128*util.KiB), util.SectorSize)
		}
		putAt := func(id blockstore.ChunkID, off int64, n int) {
			data := make([]byte, n)
			r.Fill(data)
			versions[id]++
			if err := e.set.Append(nil, id, off, data, versions[id]); err != nil {
				t.Fatal(err)
			}
		}
		put := func(kib ...int) {
			id, off := at()
			putAt(id, off, kib[r.Intn(len(kib))]*util.KiB)
		}

		// Wrap the SSD journal: replay by hand whenever it is full.
		for ssd.log.Head() < 3*ssdSize/2 {
			if !ssd.log.Fits(64 * util.KiB) {
				drainByHand(t, e.set)
			}
			put(4, 8, 16, 64)
		}
		drainByHand(t, e.set)

		// The held run, until the SSD journal is full: it crosses its wrap,
		// and once it has no room for a 64 KiB write the HDD journal takes
		// those while later 4 KiB rewrites inside them still go to the SSD
		// (the first loop leaves it at least 48 KiB less two 16.5 KiB
		// records, a write and a pad).
		for ssd.log.Fits(48 * util.KiB) {
			put(4, 4, 8, 16)
		}
		for ssd.log.Fits(4 * util.KiB) {
			id, off := at()
			putAt(id, off, 64*util.KiB)
			putAt(id, off+r.Int63n(16)*4*util.KiB, 4*util.KiB)
		}
		if ssd.log.Head()/ssdSize < 2 {
			t.Fatalf("the SSD journal's head %d has not crossed a second wrap", ssd.log.Head())
		}
		if e.set.journals[1].log.Used() == 0 {
			t.Fatal("nothing overflowed into the HDD journal")
		}

		recs := scanJournals(t, e.set)
		if len(recs) != e.set.Pending() {
			t.Fatalf("the scans found %d records, %d are pending", len(recs), e.set.Pending())
		}
		inLogOrder := rebuildIndexes(recs)
		slices.SortStableFunc(recs, func(a, b scannedRecord) int { return cmp.Compare(a.h.Version, b.h.Version) })
		byVersion := rebuildIndexes(recs)

		e.set.mu.Lock()
		defer e.set.mu.Unlock()
		if ids := differing(byVersion, e.set.indexes); len(ids) > 0 {
			for _, id := range ids {
				t.Errorf("chunk %v: rebuilt %v, live %v", id, mapping(byVersion[id]), mapping(e.set.indexes[id]))
			}
		}
		if len(differing(inLogOrder, e.set.indexes)) == 0 {
			t.Error("a rebuild in journal order matches too: the run never put a newer record before an older one")
		}
	})
}
