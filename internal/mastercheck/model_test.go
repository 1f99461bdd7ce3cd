// Package mastercheck checks master replication exhaustively at a small
// scope. Its explorer runs breadth-first over every interleaving of client
// commits, log batches and their acks, promotion probes and faults on a model
// of three masters, with no transport and no clock: the standby's batch step
// (master.StepBatch), the shipper's ack step (StepAck), the commit rule
// (Committed), the primacy rule (Live), the promise (Promise), the
// promotion decision (Elect) and every step-down (StepDown) are the real
// functions, and a chunk server's create decides by chunkserver.Outdated.
// Time is a tick that only a fault advances by one primacy window; the
// primacy window and a client lease are one tick long. States are
// deduplicated by hash, and a violated invariant prints the shortest trace
// that reaches it. The package has only test files.
package mastercheck

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"time"

	"ursa/internal/chunkserver"
	"ursa/internal/master"
)

// scope bounds one exploration.
type scope struct {
	commits int // client commits: creates, segment allocations, lease opens and renewals
	faults  int // crashes, partitions, lost batches or acks, promotion timers firing
	// amnesia makes a crash restart the master with no log and no epoch, the
	// joining standby core.HealMaster makes; the client only creates, and the
	// faults are crashes and promotion timers. What the masters do not keep
	// (ROADMAP item 4) can then hand a vdisk ID out again, and only the chunk
	// servers' create rule stands between the two vdisks. The invariants on
	// the log are not checked; the slot rule is.
	amnesia bool
}

func (sc scope) String() string {
	s := fmt.Sprintf("3 masters, %d commits, %d faults", sc.commits, sc.faults)
	if sc.amnesia {
		s += ", crashes lose the log"
	}
	return s
}

var peers = []string{"m0", "m1", "m2"}

const n = 3

// ttl is one tick: the primacy window, and a client lease.
const ttl = time.Second

func at(tick int8) time.Time { return time.Unix(0, 0).Add(time.Duration(tick) * ttl) }

// Entry kinds.
const (
	kNoop   = iota // a promotion's first entry
	kCreate        // a vdisk create: arg is its ID
	kAlloc         // a segment allocation: arg is the new watermark
	kLease         // a lease grant: arg is the holder (cA, cB)
)

// Clients of the lease.
const (
	cNone = iota
	cA
	cB
)

// entry is a model log entry: its position and what it does.
type entry struct {
	master.Pos
	kind int8
	arg  uint8
	op   int8 // the client op that appended it; -1 for a promotion's
}

func (e entry) At() master.Pos { return e.Pos }

// state is what a master's log replays to.
type state struct {
	nextID, nextSeg, holder uint8
}

func (s *state) apply(e entry) {
	switch e.kind {
	case kCreate:
		s.nextID = e.arg
	case kAlloc:
		s.nextSeg = max(s.nextSeg, e.arg)
	case kLease:
		s.holder = e.arg
	}
}

func replay(log []entry) state {
	var s state
	for _, e := range log {
		s.apply(e)
	}
	return s
}

// pending is a client op a primary appended and awaits a majority for.
type pending struct {
	op  int8
	pos master.Pos
	at  int8 // the tick it was issued at: a lease grant runs from it
}

// node is one master.
type node struct {
	up       bool
	role     master.Role
	log      []entry
	st       state
	heard    int8 // tick of the last batch from its primary, or promise
	ships    [n - 1]master.Ship
	leaseEnd int8 // the primary's soft state: when the held lease ends
	pend     []pending
}

func (m *node) clone() node {
	c := *m
	c.log, c.pend = slices.Clone(m.log), slices.Clone(m.pend)
	return c
}

// fresh reports whether the master has heard its primary this window.
func (m *node) fresh(now int8) bool { return now-m.heard < 1 }

// others returns the peers m ships to, in ships order.
func others(i int) []int {
	var out []int
	for j := range n {
		if j != i {
			out = append(out, j)
		}
	}
	return out
}

func shipIndex(i, j int) int {
	if j < i {
		return j
	}
	return j - 1
}

// msg is a log batch from primary from to standby to, or the ack of one on
// its way back, in flight.
type msg struct {
	from, to int8
	ack      bool
	epoch    uint64
	prev     master.Pos
	entries  []entry
	cursor   uint64 // the batch's start; an ack echoes it
	end      uint64 // the primary's log end when it sent the batch
	n        int8   // entries the batch carried; on an ack, -1 is StatusStaleEpoch at epoch
	sent     int8
	applied  uint64
}

func (m msg) String() string {
	if m.ack {
		return fmt.Sprintf("m%d's ack of m%d's batch", m.to, m.from)
	}
	return fmt.Sprintf("m%d's batch of %d to m%d", m.from, m.n, m.to)
}

// slot is the chunk server's slot of a vdisk: the create that made it.
type slot struct {
	id    uint8
	put   master.Pos
	owner int8
}

// ackedEntry is an entry a client was answered OK for.
type ackedEntry struct {
	pos  master.Pos
	kind int8
	arg  uint8
}

// reign is one master's primacy at one epoch.
type reign struct {
	epoch  uint64
	master int8
}

// world is one state of the model.
type world struct {
	now     int8
	commits int8
	faults  int8
	m       [n]node
	cut     [n][n]bool
	msgs    []msg
	acked   []ackedEntry
	reigns  []reign // every primacy taken, the bootstrap's first
	slots   []slot
	aEnd    int8 // the end of a's last acknowledged lease (-1: none)
	bFrom   int8 // when b's first acknowledged grant was issued (-1: none)
	bad     string
}

func (w *world) clone() *world {
	c := *w
	for i := range w.m {
		c.m[i] = w.m[i].clone()
	}
	c.msgs = make([]msg, len(w.msgs))
	for i, m := range w.msgs {
		c.msgs[i] = m
		c.msgs[i].entries = slices.Clone(m.entries)
	}
	c.acked, c.reigns, c.slots = slices.Clone(w.acked), slices.Clone(w.reigns), slices.Clone(w.slots)
	return &c
}

// initial is the cluster as core.New starts it: m0 primary at epoch 1, the
// others its standbys, every log empty.
func initial() *world {
	w := &world{aEnd: -1, bFrom: -1}
	for i := range w.m {
		w.m[i] = node{up: true, role: master.Role{Epoch: 1, Leader: peers[0], Primary: i == 0}, leaseEnd: -1}
		for k := range w.m[i].ships {
			w.m[i].ships[k].Heard = at(0) // the bootstrap primary's first window
		}
	}
	w.reigns = []reign{{epoch: 1, master: 0}}
	return w
}

func (w *world) reachable(i, j int) bool { return w.m[i].up && w.m[j].up && !w.cut[i][j] }

// ships returns m's ship records at ticks made times.
func ships(m *node) []master.Ship {
	out := make([]master.Ship, len(m.ships))
	copy(out, m.ships[:])
	return out
}

// live runs the primacy rule at i, stepping a lapsed primary down.
func (w *world) live(i int) bool {
	m := &w.m[i]
	if m.role.Primary && !master.Live(at(w.now), ttl, ships(m)) {
		m.role = master.StepDown(m.role, m.role.Epoch, "")
	}
	return m.up && m.role.Primary
}

// commit appends e at primary i for client op, as commitLocked does.
func (w *world) commit(i int, e entry, op int8) {
	m := &w.m[i]
	e.Pos = master.Pos{Epoch: m.role.Epoch, Seq: uint64(len(m.log)) + 1}
	e.op = op
	m.st.apply(e)
	m.log = append(m.log, e)
	if op >= 0 {
		m.pend = append(m.pend, pending{op: op, pos: e.Pos, at: w.now})
	}
}

// settle runs what follows any event: lapsed primaries step down, and every
// awaited op whose entry a majority holds is answered, or failed when its
// master is deposed or down.
func (w *world) settle() {
	// At most one message is in flight from a primary to a standby, so an
	// order by the two names them all: the state does not hold the order they
	// were sent in.
	slices.SortFunc(w.msgs, func(a, b msg) int { return int(a.from)*n + int(a.to) - int(b.from)*n - int(b.to) })
	for i := range w.m {
		m := &w.m[i]
		w.live(i)
		keep := m.pend[:0]
		for _, p := range m.pend {
			switch {
			case !m.up || m.role.Epoch != p.pos.Epoch || !m.role.Primary:
				// ErrNotPrimary or ErrNoQuorum: the client was told no.
			case master.Committed(uint64(len(m.log)), ships(m)) >= p.pos.Seq:
				w.answer(i, p)
			default:
				keep = append(keep, p)
			}
		}
		m.pend = keep
	}
}

// answer records a client's OK for p at master i and runs what the client
// does next: a create makes its slot.
func (w *world) answer(i int, p pending) {
	e := w.m[i].log[p.pos.Seq-1]
	w.acked = append(w.acked, ackedEntry{pos: e.Pos, kind: e.kind, arg: e.arg})
	switch {
	case e.kind == kCreate:
		w.createSlot(e)
	case e.kind == kLease && e.arg == cA:
		w.aEnd = max(w.aEnd, p.at+1)
	case e.kind == kLease && e.arg == cB && w.bFrom < 0:
		w.bFrom = p.at
	}
}

// createSlot runs a vdisk create on the chunk server: a slot of the same ID
// that Outdated does not condemn is adopted, as createChunk does. The slot
// rule: a create adopts only a slot made by a create at its own log position.
// (Two creates at one position are one create, unless a master forgot an
// epoch it took part in, which only a durable log and epoch rule out.)
func (w *world) createSlot(e entry) {
	req := chunkserver.CreateChunkReq{View: 1, Put: e.Pos}
	k := slices.IndexFunc(w.slots, func(s slot) bool { return s.id == e.arg })
	if k >= 0 && !chunkserver.Outdated(1, w.slots[k].put, req.Redundancy, false, 0, req) {
		if old := w.slots[k]; old.put != e.Pos {
			w.fail("the create of vdisk %d at %v (op %d) adopted the slot op %d's create at %v left", e.arg, e.Pos, e.op, old.owner, old.put)
		}
		return
	}
	s := slot{id: e.arg, put: e.Pos, owner: e.op}
	if k >= 0 {
		w.slots[k] = s
	} else {
		w.slots = append(w.slots, s)
	}
}

func (w *world) fail(format string, args ...any) {
	if w.bad == "" {
		w.bad = fmt.Sprintf(format, args...)
	}
}

// check returns the first invariant the state breaks, or "".
func (w *world) check(sc scope) string {
	if w.bad != "" {
		return w.bad
	}
	for i := range w.m {
		m := &w.m[i]
		if m.up && m.st != replay(m.log) {
			return fmt.Sprintf("m%d's state %+v is not the replay of its log %+v", i, m.st, replay(m.log))
		}
	}
	if sc.amnesia {
		return ""
	}
	for k, a := range w.acked {
		for _, o := range w.acked[:k] {
			if a.kind == o.kind && a.arg == o.arg && a.kind != kLease {
				return fmt.Sprintf("%s handed out twice: entries %v and %v", kindName(entry{kind: a.kind, arg: a.arg}), o.pos, a.pos)
			}
		}
		for i := range w.m {
			m := &w.m[i]
			if m.up && m.role.Primary && m.role.Epoch > a.pos.Epoch &&
				(uint64(len(m.log)) < a.pos.Seq || m.log[a.pos.Seq-1].Pos != a.pos) {
				return fmt.Sprintf("m%d, primary at epoch %d, does not hold the acknowledged entry %v", i, m.role.Epoch, a.pos)
			}
		}
	}
	for k, r := range w.reigns {
		for _, o := range w.reigns[:k] {
			if o.epoch == r.epoch && o.master != r.master {
				return fmt.Sprintf("m%d and m%d were both primary at epoch %d", o.master, r.master, r.epoch)
			}
		}
	}
	if w.aEnd >= 0 && w.bFrom >= 0 && w.bFrom < w.aEnd {
		return fmt.Sprintf("b's lease granted at tick %d, before a's acknowledged end %d", w.bFrom, w.aEnd)
	}
	return ""
}

func (w *world) encode() []byte {
	var b []byte
	u := func(v uint64) { b = binary.AppendUvarint(b, v) }
	s := func(v int8) { b = append(b, byte(v)) }
	pos := func(p master.Pos) { u(p.Epoch); u(p.Seq) }
	log := func(l []entry) {
		u(uint64(len(l)))
		for _, e := range l {
			pos(e.Pos)
			s(e.kind)
			b = append(b, e.arg)
			s(e.op)
		}
	}
	s(w.now)
	s(w.commits)
	s(w.faults)
	for i := range w.m {
		m := &w.m[i]
		b = append(b, boolByte(m.up), boolByte(m.role.Primary), byte(peerIndex(m.role.Leader)))
		u(m.role.Epoch)
		log(m.log)
		b = append(b, m.st.nextID, m.st.nextSeg, m.st.holder)
		s(m.heard)
		for _, sh := range m.ships {
			u(sh.Next)
			u(sh.Match)
			s(int8(sh.Heard.Sub(at(0)) / ttl))
		}
		s(m.leaseEnd)
		u(uint64(len(m.pend)))
		for _, p := range m.pend {
			s(p.op)
			pos(p.pos)
			s(p.at)
		}
		for j := range w.cut[i] {
			b = append(b, boolByte(w.cut[i][j]))
		}
	}
	u(uint64(len(w.msgs)))
	for _, m := range w.msgs {
		s(m.from)
		s(m.to)
		b = append(b, boolByte(m.ack))
		u(m.epoch)
		pos(m.prev)
		log(m.entries)
		u(m.cursor)
		u(m.end)
		s(m.n)
		s(m.sent)
		u(m.applied)
	}
	u(uint64(len(w.acked)))
	for _, a := range w.acked {
		pos(a.pos)
		s(a.kind)
		b = append(b, a.arg)
	}
	u(uint64(len(w.reigns)))
	for _, r := range w.reigns {
		u(r.epoch)
		s(r.master)
	}
	u(uint64(len(w.slots)))
	for _, sl := range w.slots {
		b = append(b, sl.id)
		pos(sl.put)
		s(sl.owner)
	}
	s(w.aEnd)
	s(w.bFrom)
	return b
}

func peerIndex(addr string) int { return slices.Index(peers, addr) + 1 }

func hash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// describe renders a state for a trace.
func (w *world) describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tick %d", w.now)
	for i := range w.m {
		m := &w.m[i]
		fmt.Fprintf(&b, " | m%d", i)
		switch {
		case !m.up:
			b.WriteString(" down")
			continue
		case m.role.Primary:
			fmt.Fprintf(&b, " primary@%d", m.role.Epoch)
		default:
			fmt.Fprintf(&b, " @%d→%s", m.role.Epoch, m.role.Leader)
		}
		b.WriteString(" log[")
		for k, e := range m.log {
			if k > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%d.%d:%s", e.Epoch, e.Seq, kindName(e))
		}
		b.WriteString("]")
	}
	if len(w.msgs) > 0 {
		fmt.Fprintf(&b, " | %d in flight", len(w.msgs))
	}
	return b.String()
}

func kindName(e entry) string {
	switch e.kind {
	case kCreate:
		return fmt.Sprintf("create%d", e.arg)
	case kAlloc:
		return fmt.Sprintf("seg%d", e.arg-1)
	case kLease:
		return "lease-" + string("-ab"[e.arg])
	}
	return "noop"
}
