package master

import (
	"slices"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/proto"
)

// reconcileEvery is how often the primary runs a pass of its own.
const reconcileEvery = time.Minute

// MetricSlotsReaped counts the slots reconcile passes deleted.
const MetricSlotsReaped = "master-slots-reaped"

// Reconcile runs one pass of the one judge of what exists (DESIGN.md
// "Reconciliation"): it asks every registered server for its inventory, all
// at once, and judges the answers against the state and wm, the vdisk-ID
// watermark read before the inventory goes out. Garbage is a slot of a vdisk
// at or below wm that the state does not hold (IDs are never reused), or a
// slot of a live chunk outside its replica list at a view below the recorded
// one — a replacement being filled sits at it, a dead master's unshipped
// install above it. Everything else waits for the next pass. Each delete is
// guarded by the view its slot was judged at. A cold chunk all of whose
// current replicas answered drained has its cold refs cleared, and then GC
// (collect) deletes the segments no table names. A replica of the view whose
// server answered without its slot is filed for repair, once per chunk, as a
// failure report is: an MOpReportFailure to this master, whose view change
// the pass does not wait out. The inventory takes one window of PrimacyTTL/4
// and the reap, GC and filing share a second, as promotion's two do, so Close
// waits for a pass no longer than for a promotion. It returns how many slots
// went.
func (m *Master) Reconcile() (reaped int, err error) {
	if err := m.lockPrimary("reconcile"); err != nil {
		return 0, err
	}
	wm, epoch := m.st.nextID, m.role.Epoch
	m.reconcileAt = m.cfg.Clock.Now().Add(reconcileEvery)
	queues := make([]serverQueue, len(m.st.servers))
	for i, s := range m.st.servers {
		queues[i] = serverQueue{s.Addr, []*proto.Message{{Op: proto.OpGetVersion}}}
	}
	m.mu.Unlock()

	held := make([][]proto.ChunkResult, len(queues))
	listed := make(map[string]map[blockstore.ChunkID]bool) // by each server whose inventory came
	m.fanOut(m.cfg.PrimacyTTL/4, queues, func(q int, resp *proto.Message) bool {
		var err error
		if held[q], err = proto.DecodeResults(resp.Payload); err == nil && resp.Status == proto.StatusOK {
			listed[queues[q].addr] = make(map[blockstore.ChunkID]bool)
		}
		return true
	})

	garbage := make([][]proto.ChunkEntry, len(queues))
	drained := make(map[blockstore.ChunkID]int)
	m.mu.Lock()
	if !m.primaryLocked() || m.role.Epoch != epoch {
		m.mu.Unlock() // deposed meanwhile: a new primary's batch may have cut the state
		return 0, m.errNotPrimary("reconcile")
	}
	for q, results := range held {
		for _, r := range results {
			if l := listed[queues[q].addr]; l != nil {
				l[r.Chunk] = true
			}
			cm, err := m.st.chunk(r.Chunk.VDisk(), r.Chunk.Index())
			switch {
			case err != nil:
				if r.Chunk.VDisk() <= wm {
					garbage[q] = append(garbage[q], proto.ChunkEntry{Chunk: r.Chunk, UpTo: proto.AnyView})
				}
			case r.Status != proto.StatusOK:
			case !slices.ContainsFunc(cm.Replicas, func(ri ReplicaInfo) bool { return ri.Addr == queues[q].addr }):
				if r.View < cm.View {
					garbage[q] = append(garbage[q], proto.ChunkEntry{Chunk: r.Chunk, UpTo: r.View})
				}
			case len(cm.Cold) > 0 && !r.Cold:
				// Each replica counts once (a server holds one slot of a chunk). All
				// must have drained: an undrained replica still fetches from the
				// segments this table names, so GC must keep them.
				if drained[r.Chunk]++; drained[r.Chunk] == len(cm.Replicas) {
					_, _ = m.commitLocked(entry{Materialized: &entryMaterialized{VDisk: r.Chunk.VDisk(), Index: r.Chunk.Index()}})
				}
			}
		}
	}
	var repairs []serverQueue
	for _, vd := range m.st.vdisks {
		for i, cm := range vd.meta.Chunks {
			id := blockstore.MakeChunkID(vd.meta.ID, uint32(i))
			if k := slices.IndexFunc(cm.Replicas, func(r ReplicaInfo) bool { l, ok := listed[r.Addr]; return ok && !l[id] }); k >= 0 {
				report, _ := jsonBody(ReportFailureReq{VDisk: vd.meta.ID, ChunkIndex: uint32(i), FailedAddr: cm.Replicas[k].Addr})
				repairs = append(repairs, serverQueue{m.cfg.Addr, []*proto.Message{{Op: proto.MOpReportFailure, Payload: report}}})
			}
		}
	}
	// GC judges the state the commits above left, while no flush is in flight
	// (its segments no table names yet; a later one allocates from segWM up).
	segWM, named := m.st.nextSeg, m.namedSegsLocked()
	gc := m.coldCl != nil && m.inflightFlushes == 0
	at := End(m.log)
	m.mu.Unlock()

	// The pass judged the state the log ends at, which may show entries a
	// majority does not hold yet — a delete among them. It acts only once a
	// majority holds them all.
	if err := m.await(at); err != nil {
		return 0, err
	}

	end := m.cfg.Clock.Now().Add(m.cfg.PrimacyTTL / 4)
	reaped = m.reap(m.cfg.PrimacyTTL/4, queues, garbage)
	m.cfg.Metrics.Counter(MetricSlotsReaped).Add(int64(reaped))
	if left := end.Sub(m.cfg.Clock.Now()); gc && left > 0 {
		m.collect(left, segWM, named)
	}
	if left := end.Sub(m.cfg.Clock.Now()); len(repairs) > 0 && left > 0 {
		m.fanOut(left, repairs, nil)
	}
	return reaped, nil
}

// reap deletes slots with one OpDeleteChunk queue per server (queues name
// the servers, slots[q] their entries), all at once in one window, and
// returns how many went; what it did not reach, the next pass finds again.
func (m *Master) reap(window time.Duration, queues []serverQueue, slots [][]proto.ChunkEntry) (reaped int) {
	for q, entries := range slots {
		queues[q].msgs = nil
		for at := 0; at < len(entries); at += proto.MaxBatch {
			queues[q].msgs = append(queues[q].msgs, &proto.Message{
				Op: proto.OpDeleteChunk, Payload: proto.EncodeChunks(entries[at:min(at+proto.MaxBatch, len(entries))]...),
			})
		}
	}
	m.fanOut(window, queues, func(_ int, resp *proto.Message) bool {
		results, _ := proto.DecodeResults(resp.Payload)
		for _, r := range results {
			if r.Status == proto.StatusOK {
				reaped++
			}
		}
		return true
	})
	return reaped
}

// maybeReconcile runs the primary's own pass when one is due: reconcileEvery
// after the last pass, or after it became primary.
func (m *Master) maybeReconcile() {
	m.mu.Lock()
	due := m.primaryLocked() && !m.cfg.Clock.Now().Before(m.reconcileAt)
	m.mu.Unlock()
	if due {
		_, _ = m.Reconcile() // refused only when deposed meanwhile
	}
}
