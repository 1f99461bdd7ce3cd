package chunkserver

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/proto"
	"ursa/internal/simdisk"
	"ursa/internal/util"
)

// Pending entries are values in the chunk's table, overwritten in place by
// their slot's next claimant, and nothing holds one by reference: a handler
// names its entry by (slot, claim), a dependant re-reads the table. These
// tests pin what that buys — a handler or dependant left over from an
// earlier claim of a slot can never act on the claim that replaced it.

// TestSupersededClaimSettlesNothing: the handler of a failed claim, arriving
// late with its verdict, must not settle the retry that re-claimed the slot,
// nor an entry a rebuild has dropped.
func TestSupersededClaimSettlesNothing(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newEnv(t)
		defer cleanup()
		e.createChunk(t)
		s := e.primary
		cs := s.chunk(testChunk)
		claim := func(version uint64) uint64 {
			cs.mu.Lock()
			defer cs.mu.Unlock()
			c, _ := s.claimSlotLocked(cs, &proto.Message{Version: version, Payload: make([]byte, util.SectorSize)})
			return c
		}
		entry := func(slot uint64) (pendingWrite, bool) {
			cs.mu.Lock()
			defer cs.mu.Unlock()
			p, ok := cs.pending[slot]
			return p, ok
		}

		first := claim(0)
		cs.applyDone(0, first, errors.New("device"))
		if p, ok := entry(0); !ok || !p.failed {
			t.Fatalf("after the failed apply: entry %+v present=%v, want it kept as failed", p, ok)
		}
		retry := claim(0) // the sender's retry re-claims the slot in place
		if retry == first {
			t.Fatalf("the retry got claim number %d again", retry)
		}
		cs.applyDone(0, first, nil) // the first claim's handler, late
		if p, _ := entry(0); p.applied || p.failed || cs.committed() != 0 {
			t.Fatalf("a superseded claim settled its successor: entry %+v, version %d", p, cs.committed())
		}
		cs.applyDone(0, retry, nil)
		if _, ok := entry(0); ok || cs.committed() != 1 {
			t.Fatalf("the retry's own verdict: entry present=%v, version %d, want committed at 1", ok, cs.committed())
		}

		// A rebuild adopts past a failed slot and drops it; the slot numbers above
		// it are handed out again. The dropped claim's verdict is void too.
		dropped := claim(1)
		cs.applyDone(1, dropped, errors.New("device"))
		cs.mu.Lock()
		cs.adoptVersionLocked(2, true)
		cs.mu.Unlock()
		if _, ok := entry(1); ok {
			t.Fatal("adoption past slot 1 kept its entry")
		}
		next := claim(2)
		cs.applyDone(1, dropped, nil)
		cs.applyDone(2, dropped, nil) // right slot, wrong claim
		if p, ok := entry(2); !ok || p.applied || cs.committed() != 2 {
			t.Fatalf("a dropped claim settled slot 2: entry %+v present=%v, version %d", p, ok, cs.committed())
		}
		cs.applyDone(2, next, nil)
		if cs.committed() != 3 || pendingLen(s) != 0 {
			t.Fatalf("version %d with %d pending, want 3 and none", cs.committed(), pendingLen(s))
		}
	})
}

// TestOverlappingWritesAcrossStalledAndFailedApplies piles 32 writes of one
// extent, consecutive versions, behind a stalled apply, then fails every
// apply for a while: dependants abort on failed predecessors, retries
// re-claim failed slots while dependants of the earlier claims are still
// waking, and claims of one slot follow each other in the same table entry.
// Whatever the interleaving, applies must land in version order — the extent
// ends up holding the last version's bytes.
func TestOverlappingWritesAcrossStalledAndFailedApplies(t *testing.T) {
	clock.Test(t, func() {
		const qd = 32
		e, cleanup := newRebuildEnv(t)
		defer cleanup()
		fi := simdisk.NewFaultInjector(simdisk.NewSSD(fastSSD(), clock.Realtime), clock.Realtime)
		srv := e.start("p", false, fi, 2*time.Second)
		mustCreate(t, srv, CreateChunkReq{View: 1})
		payload := func(v int) []byte { return bytes.Repeat([]byte{byte(v + 1)}, 4*util.KiB) }

		var wg sync.WaitGroup
		send := func(v int) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for attempt := 0; attempt < 2000; attempt++ {
					st := apply(srv, proto.OpReplicate, uint64(v), 0, payload(v))
					if st == proto.StatusOK || (attempt > 0 && st == proto.StatusStaleVersion) {
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
				t.Errorf("version %d never committed", v)
			}()
		}
		fi.Stall(20 * time.Millisecond)
		send(0)
		waitFor(t, "the stalled write's admission", func() bool { return pendingLen(srv) == 1 })
		for v := 1; v < qd; v++ {
			send(v)
		}
		waitFor(t, "every write's admission behind the stalled one", func() bool { return pendingLen(srv) == qd })
		fi.Heal() // the stalled apply is past the injector and will land
		fi.FailWrites(nil)
		waitFor(t, "a run of failed applies and re-claims", func() bool { return fi.FaultStats().WritesFailed >= qd })
		fi.Heal()
		wg.Wait()

		if v, n := srv.chunk(testChunk).committed(), pendingLen(srv); v != qd || n != 0 {
			t.Fatalf("version %d with %d pending, want %d and none", v, n, qd)
		}
		r := srv.Handle(&proto.Message{
			Op: proto.OpRead, Chunk: testChunk, Off: 0, Length: 4 * util.KiB, View: 1, Version: qd,
		})
		if r.Status != proto.StatusOK {
			t.Fatalf("read-back: %s", r.Status)
		}
		if want := payload(qd - 1); !bytes.Equal(r.Payload, want) {
			t.Errorf("extent holds %#x.., want the last version's %#x..", r.Payload[0], want[0])
		}
		bufpool.Put(r.Payload)
	})
}
