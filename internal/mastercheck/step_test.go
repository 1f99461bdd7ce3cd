package mastercheck

import (
	"fmt"
	"slices"

	"ursa/internal/master"
)

// Client ops.
const (
	opCreate = iota
	opAlloc
	opOpenA
	opRenewA
	opOpenB
)

var opNames = []string{"create", "allocate a segment", "a opens", "a renews", "b opens"}

func (sc scope) ops() []int8 {
	if sc.amnesia {
		return []int8{opCreate}
	}
	return []int8{opCreate, opAlloc, opOpenA, opRenewA, opOpenB}
}

// step calls next with every state one event leads from w to, and the
// event's label.
func step(sc scope, w *world, next func(label string, n *world)) {
	emit := func(label string, n *world) {
		n.settle()
		next(label, n)
	}
	if int(w.commits) < sc.commits {
		for i := range w.m {
			if !w.m[i].up || !w.m[i].role.Primary {
				continue
			}
			for _, op := range sc.ops() {
				n := w.clone()
				if n.client(i, op) {
					n.commits++
					emit(fmt.Sprintf("client: %s at m%d", opNames[op], i), n)
				}
			}
		}
	}
	for i := range w.m {
		for _, j := range others(i) {
			if n := w.clone(); n.ship(i, j) {
				emit(fmt.Sprintf("m%d ships to m%d", i, j), n)
			}
		}
	}
	for k, m := range w.msgs {
		n := w.clone()
		n.deliver(k)
		emit(m.String()+" arrives", n)
	}
	for i := range w.m {
		if !w.m[i].up || w.m[i].role.Primary || w.m[i].fresh(w.now) {
			continue
		}
		n := w.clone()
		n.probe(i, -1)
		emit(fmt.Sprintf("m%d probes for epoch %d", i, w.m[i].role.Epoch+1), n)
		if int(w.faults) < sc.faults && !sc.amnesia {
			for _, j := range others(i) {
				if w.reachable(i, j) {
					n := w.clone()
					n.faults++
					n.probe(i, j)
					emit(fmt.Sprintf("fault: m%d probes for epoch %d, m%d's answer is lost", i, w.m[i].role.Epoch+1, j), n)
				}
			}
		}
	}
	if int(w.faults) >= sc.faults {
		return
	}
	fault := func(label string, f func(n *world)) {
		n := w.clone()
		n.faults++
		f(n)
		emit("fault: "+label, n)
	}
	for i := range w.m {
		if w.m[i].up {
			fault(fmt.Sprintf("m%d crashes", i), func(n *world) { n.crash(i, sc.amnesia) })
		}
		if sc.amnesia {
			continue
		}
		if !w.cut[i][(i+1)%n] || !w.cut[i][(i+2)%n] {
			fault(fmt.Sprintf("m%d is cut off from the others", i), func(n *world) {
				for _, j := range others(i) {
					n.partition(i, j)
				}
			})
		}
		for _, j := range others(i) {
			if j > i && !w.cut[i][j] {
				fault(fmt.Sprintf("m%d and m%d are cut apart", i, j), func(n *world) { n.partition(i, j) })
			}
		}
	}
	for k, m := range w.msgs {
		if !sc.amnesia {
			fault(m.String()+" is lost", func(n *world) { n.msgs = slices.Delete(n.msgs, k, k+1) })
		}
	}
	fault("a primacy window passes", func(n *world) { n.now++ })
}

// client runs op at primary i, as its handler does, and says whether it did
// anything: an op refused leaves the state as it was.
func (w *world) client(i int, op int8) bool {
	m := &w.m[i]
	id := int8(w.commits)
	switch op {
	case opCreate:
		w.commit(i, entry{kind: kCreate, arg: m.st.nextID + 1}, id)
	case opAlloc:
		w.commit(i, entry{kind: kAlloc, arg: m.st.nextSeg + 1}, id)
	case opOpenA, opOpenB:
		c, rival := uint8(cA), uint8(cB)
		if op == opOpenB {
			c, rival = cB, cA
		}
		switch {
		case m.st.holder == rival && w.now < m.leaseEnd:
			return false // ErrLeaseHeld
		case m.st.holder == c:
			w.renewed(c) // the holder's own open logs nothing
		default:
			w.commit(i, entry{kind: kLease, arg: c}, id)
		}
		m.leaseEnd = w.now + 1
	case opRenewA:
		if m.st.holder != cA {
			return false
		}
		m.leaseEnd = w.now + 1
		w.renewed(cA)
	}
	return true
}

// renewed records a lease answered at once: it runs one lease from now.
func (w *world) renewed(c uint8) {
	if c == cA {
		w.aEnd = max(w.aEnd, w.now+1)
	} else if w.bFrom < 0 {
		w.bFrom = w.now
	}
}

// inFlight reports whether a batch or its ack is on its way between i and j:
// a shipper waits for its call's answer (or window) before the next.
func (w *world) inFlight(i, j int) bool {
	return slices.ContainsFunc(w.msgs, func(m msg) bool { return int(m.from) == i && int(m.to) == j })
}

// ship sends primary i's next batch to j, as shipLoop does: the entries from
// its cursor on, or a heartbeat when there are none and j's window is
// running out.
func (w *world) ship(i, j int) bool {
	m := &w.m[i]
	if !m.up || !m.role.Primary || !w.reachable(i, j) || w.inFlight(i, j) {
		return false
	}
	s := m.ships[shipIndex(i, j)]
	end := uint64(len(m.log))
	if s.Next >= end && !s.Heard.Before(at(w.now)) {
		return false // nothing to send, and j was heard this window
	}
	var prev master.Pos
	if s.Next > 0 {
		prev = m.log[s.Next-1].Pos
	}
	batch := slices.Clone(m.log[min(s.Next, end):])
	w.msgs = append(w.msgs, msg{from: int8(i), to: int8(j), epoch: m.role.Epoch, prev: prev, entries: batch,
		cursor: s.Next, end: end, n: int8(len(batch)), sent: w.now})
	return true
}

// deliver hands message k to its receiver.
func (w *world) deliver(k int) {
	g := w.msgs[k]
	w.msgs = slices.Delete(w.msgs, k, k+1)
	if g.ack {
		w.takeAck(g)
		return
	}
	// replicateLog at the standby.
	j := int(g.to)
	m := &w.m[j]
	w.live(j)
	t := master.StepBatch(m.role, m.log, g.epoch, peers[g.from], g.prev, g.entries)
	reply := msg{from: g.from, to: g.to, ack: true, epoch: g.epoch, cursor: g.cursor, end: g.end, n: g.n, sent: g.sent}
	if t.Stale {
		reply.applied, reply.epoch = 0, m.role.Epoch
		reply.n = -1 // StatusStaleEpoch, carrying the standby's epoch
		w.msgs = append(w.msgs, reply)
		return
	}
	m.role, m.heard = t.Role, w.now
	if t.Keep < uint64(len(m.log)) {
		m.log = m.log[:t.Keep:t.Keep]
		m.st = replay(m.log)
	}
	applied := t.Held
	for _, e := range g.entries[t.From:] {
		if e.Seq != uint64(len(m.log))+1 {
			break
		}
		m.st.apply(e)
		m.log = append(m.log, e)
		applied++
	}
	reply.applied = applied
	w.msgs = append(w.msgs, reply)
}

// takeAck runs the shipper's side of an answered batch at the primary.
func (w *world) takeAck(g msg) {
	i := int(g.from)
	m := &w.m[i]
	if !m.up {
		return
	}
	if g.n < 0 { // heed: the standby has witnessed a newer epoch
		w.stepDown(i, g.epoch, "")
		return
	}
	k := shipIndex(i, int(g.to))
	if !w.live(i) || m.role.Epoch != g.epoch || m.ships[k].Next != g.cursor {
		return
	}
	m.ships[k], _, _ = master.StepAck(m.ships[k], at(g.sent), int(g.n), g.end, g.applied)
}

// stepDown runs stepDownLocked at i.
func (w *world) stepDown(i int, epoch uint64, leader string) {
	m := &w.m[i]
	r := master.StepDown(m.role, epoch, leader)
	if r.Epoch > m.role.Epoch {
		m.heard = w.now
	}
	m.role = r
}

// info is master j's MOpMasterInfo answer, as masterInfoLocked builds it.
func (w *world) info(j int) *master.MasterInfoResp {
	m := &w.m[j]
	end := master.End(m.log)
	a := &master.MasterInfoResp{Self: peers[j], Epoch: m.role.Epoch, IsPrimary: w.live(j), LogEpoch: end.Epoch, LogSeq: end.Seq}
	if a.IsPrimary || m.role.Leader != peers[j] {
		a.Primary = m.role.Leader
	}
	return a
}

// probe runs master c's promotion probe, as maybePromote does, every
// reachable master answering but lost's (-1: none lost): each answerer runs
// Promise, then c runs Elect on the answers and promotes or steps down.
func (w *world) probe(c, lost int) {
	m := &w.m[c]
	r := m.role
	epoch := r.Epoch + 1
	answers := make([]*master.MasterInfoResp, n-1)
	for _, j := range others(c) {
		if !w.reachable(c, j) {
			continue
		}
		o := &w.m[j]
		primary := w.live(j)
		if p := master.Promise(o.role, primary || o.fresh(w.now), epoch, peers[c]); p != o.role {
			o.role, o.heard = p, w.now
		}
		if j != lost {
			answers[shipIndex(c, j)] = w.info(j)
		}
	}
	v := master.Elect(peers[c], peers, r, master.End(m.log), epoch, answers)
	if !v.Promote {
		if v.Role != r {
			w.stepDown(c, v.Role.Epoch, v.Role.Leader)
		}
		return
	}
	m.role = master.Role{Epoch: epoch, Leader: peers[c], Primary: true}
	for k := range m.ships {
		m.ships[k] = master.Ship{Heard: at(-100)}
		if v.Backed[k] {
			m.ships[k].Heard = at(w.now)
		}
	}
	w.commit(c, entry{kind: kNoop}, -1)
	if m.st.holder != cNone {
		m.leaseEnd = w.now + 1
	}
	m.heard = w.now
	w.reigns = append(w.reigns, reign{epoch: epoch, master: int8(c)})
}

// crash stops master i; with amnesia it comes back at once with nothing, as
// a healed master joins.
func (w *world) crash(i int, amnesia bool) {
	w.msgs = slices.DeleteFunc(w.msgs, func(m msg) bool { return int(m.from) == i || int(m.to) == i })
	if !amnesia {
		w.m[i].up = false
		w.m[i].pend = nil
		return
	}
	w.m[i] = node{up: true, heard: -100, leaseEnd: -1}
	for k := range w.m[i].ships {
		w.m[i].ships[k].Heard = at(-100)
	}
}

// partition cuts i and j apart; what is in flight between them is lost.
func (w *world) partition(i, j int) {
	w.cut[i][j], w.cut[j][i] = true, true
	w.msgs = slices.DeleteFunc(w.msgs, func(m msg) bool {
		return int(m.from) == i && int(m.to) == j || int(m.from) == j && int(m.to) == i
	})
}
