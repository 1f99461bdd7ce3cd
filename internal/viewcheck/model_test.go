// Package viewcheck checks the view change exhaustively at a small scope. Its
// explorer runs breadth-first over every interleaving of client writes,
// faults, view-change actions and reconcile passes on a model of one chunk,
// with no transport and no clock: the master's actions come from the real
// planner (master.Plan) and every replica decision from the real rules
// (chunkserver.WriteRule, ReadRule, Adopted, Outdated, SetViewRule, FillRule),
// and a replica's bytes are the IDs of the writes it applied, in version
// order. States are deduplicated by hash, and a violated invariant prints the
// shortest trace that reaches it. The package has only test files.
package viewcheck

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"

	"ursa/internal/chunkserver"
	"ursa/internal/master"
	"ursa/internal/proto"
	"ursa/internal/redundancy"
)

// scope bounds one exploration.
type scope struct {
	rs     bool // RS(2,1) rather than 3 mirror replicas
	writes int  // client writes
	faults int  // crashes, lost messages, failed installs, failovers, stale reports
	passes int  // reconcile passes
}

func (sc scope) String() string {
	kind := "mirror"
	if sc.rs {
		kind = "RS(2,1)"
	}
	return fmt.Sprintf("%s, %d writes, %d faults, %d passes", kind, sc.writes, sc.faults, sc.passes)
}

func (sc scope) spec() redundancy.Spec {
	if sc.rs {
		return redundancy.Spec{Kind: redundancy.KindRS, N: 2, M: 1}
	}
	return redundancy.Spec{}
}

// The cluster: one server per machine. A mirror chunk starts on s0 (SSD), s1
// and s2, with s3 (SSD) and s4 spare; an RS(2,1) chunk's primary is s0 and
// its holders s1–s3, with s4 (SSD) and s5 spare.
type cluster struct {
	spec    redundancy.Spec
	strat   redundancy.Strategy
	servers []master.RegisterReq
	start   []int8
}

func newCluster(sc scope) *cluster {
	c := &cluster{spec: sc.spec(), start: []int8{0, 1, 2}}
	ssd := []bool{true, false, false, true, false}
	if sc.rs {
		c.start, ssd = []int8{0, 1, 2, 3}, []bool{true, false, false, false, true, false}
	}
	c.strat, _ = redundancy.New(c.spec)
	for i, s := range ssd {
		c.servers = append(c.servers, master.RegisterReq{Addr: fmt.Sprintf("s%d", i), Machine: fmt.Sprintf("m%d", i), SSD: s})
	}
	return c
}

func (c *cluster) index(addr string) int8 {
	return int8(slices.IndexFunc(c.servers, func(s master.RegisterReq) bool { return s.Addr == addr }))
}

func (c *cluster) meta(view uint64, reps []int8) master.ChunkMeta {
	cm := master.ChunkMeta{View: view}
	for _, i := range reps {
		cm.Replicas = append(cm.Replicas, master.ReplicaInfo{Addr: c.servers[i].Addr, SSD: c.servers[i].SSD})
	}
	return cm
}

func (c *cluster) reps(cm master.ChunkMeta) []int8 {
	out := make([]int8, len(cm.Replicas))
	for i, r := range cm.Replicas {
		out[i] = c.index(r.Addr)
	}
	return out
}

// slot is one server's replica of the chunk.
type slot struct {
	view, version uint64
	writes        []int8 // the write applied at each version; -1: a decode of pieces that disagreed
	holder        bool
	seg           int8
	backups       []int8 // an RS primary's shipment targets, by position
	liteFrom      uint64 // the oldest version its history reaches back to
}

func (s *slot) clone() *slot {
	if s == nil {
		return nil
	}
	c := *s
	c.writes, c.backups = slices.Clone(s.writes), slices.Clone(s.backups)
	return &c
}

// msg is the client's write in flight to one server.
type msg struct {
	to    int8
	write int8
}

// report is a failure report on its way to the master.
type report struct {
	view   uint64
	failed string
	by     int8 // the reporter (byOther, byClient, byLater)
}

// Client phases.
const (
	idle      = iota
	sending   // the write's messages are in flight
	reporting // the write did not commit: a report is due
	waiting   // the report is with the master
)

type client struct {
	view    uint64
	reps    []int8
	phase   int8
	write   int8   // the write in flight (its ID)
	version uint64 // its version
	sent    uint64 // the view it was sent in, which its messages carry
	next    uint64 // the version of the next write
	msgs    []msg
	acks    int8 // acks of the write so far (RS: the holders' acks to the primary)
	primary int8 // RS: 0 before the primary answered, 1 applied, -1 failed
}

// acked is a write the client was told committed.
type acked struct {
	write   int8
	version uint64
}

// world is one state of the model.
type world struct {
	dead    []bool
	slots   []*slot
	view    uint64 // the record, as the primary master holds it
	reps    []int8
	rec     *master.Recovery // the view change in flight
	recBy   int8             // whose report it answers
	joined  bool             // the client's report waits on the one in flight
	reports []report
	cl      client
	acked   []acked
	writes  int
	faults  int
	passes  int
	bad     string // an invariant a transition broke
}

func (w *world) clone() *world {
	n := *w
	n.dead = slices.Clone(w.dead)
	n.slots = make([]*slot, len(w.slots))
	for i, s := range w.slots {
		n.slots[i] = s.clone()
	}
	n.reps = slices.Clone(w.reps)
	if w.rec != nil {
		r := *w.rec
		r.Rounds = make([][]proto.ChunkResult, len(w.rec.Rounds))
		for i, round := range w.rec.Rounds {
			r.Rounds[i] = slices.Clone(round)
		}
		n.rec = &r
	}
	n.reports = slices.Clone(w.reports)
	n.cl.reps, n.cl.msgs = slices.Clone(w.cl.reps), slices.Clone(w.cl.msgs)
	n.acked = slices.Clone(w.acked)
	return &n
}

func initial(c *cluster) *world {
	w := &world{dead: make([]bool, len(c.servers)), slots: make([]*slot, len(c.servers)), view: 1, reps: slices.Clone(c.start)}
	for pos, i := range c.start {
		w.slots[i] = &slot{view: 1, holder: c.spec.IsRS() && pos > 0, seg: int8(max(pos-1, 0))}
	}
	if c.spec.IsRS() {
		w.slots[c.start[0]].backups = slices.Clone(c.start[1:])
	}
	w.cl = client{view: 1, reps: slices.Clone(c.start)}
	return w
}

// encode is the state's compact form: what the explorer's queue holds, and
// what its identity hashes. Its views are canonical (canon), so two states
// that differ only in how far their views have counted are one: a chunk whose
// writes keep failing over a dead replica takes a seal and an install per
// report, and its states would never repeat.
func (w *world) encode(c *cluster) []byte {
	var b []byte
	u := func(v uint64) { b = binary.AppendUvarint(b, v) }
	view := w.canon()
	bs := func(s []int8) {
		u(uint64(len(s)))
		for _, x := range s {
			b = append(b, byte(x))
		}
	}
	for i, s := range w.slots {
		b = append(b, boolByte(w.dead[i]), boolByte(s != nil))
		if s != nil {
			u(view(s.view))
			u(s.version)
			bs(s.writes)
			bs(s.backups)
			u(s.liteFrom)
			b = append(b, byte(s.seg), boolByte(s.holder))
		}
	}
	u(view(w.view))
	bs(w.reps)
	b = append(b, boolByte(w.rec != nil))
	if r := w.rec; r != nil {
		b = append(b, byte(w.recBy), boolByte(w.joined))
		u(uint64(len(r.Failed)))
		b = append(b, r.Failed...)
		u(view(r.View))
		u(view(r.Meta.View))
		bs(c.reps(r.Meta))
		u(uint64(len(r.Rounds)))
		for _, round := range r.Rounds {
			u(uint64(len(round)))
			for _, a := range round {
				b = append(b, byte(a.Status))
				u(a.Version)
				u(view(a.View))
			}
		}
	}
	u(uint64(len(w.reports)))
	for _, rp := range w.reports {
		u(view(rp.view))
		b = append(b, byte(rp.by))
		u(uint64(len(rp.failed)))
		b = append(b, rp.failed...)
	}
	cl := w.cl
	u(view(cl.view))
	u(view(cl.sent))
	bs(cl.reps)
	b = append(b, byte(cl.phase), byte(cl.write), byte(cl.acks), byte(cl.primary))
	u(cl.version)
	u(cl.next)
	u(uint64(len(cl.msgs)))
	for _, m := range cl.msgs {
		b = append(b, byte(m.to), byte(m.write))
	}
	u(uint64(len(w.acked)))
	for _, a := range w.acked {
		b = append(b, byte(a.write))
		u(a.version)
	}
	u(uint64(w.writes))
	u(uint64(w.faults))
	u(uint64(w.passes))
	return b
}

// canon maps every view the state holds to a canonical number: 0 (none) and
// 1 (the first) stay, and each next one in order goes one above the previous
// when the two were adjacent, two above when not. The model and the rules
// only compare views, take one above a maximum and one below the record, and
// all three come out the same on the canonical numbers.
func (w *world) canon() func(uint64) uint64 {
	views := []uint64{0, 1, w.view, w.cl.view, w.cl.sent}
	for _, s := range w.slots {
		if s != nil {
			views = append(views, s.view)
		}
	}
	if r := w.rec; r != nil {
		views = append(views, r.View, r.Meta.View)
		for _, round := range r.Rounds {
			for _, a := range round {
				views = append(views, a.View)
			}
		}
	}
	for _, rp := range w.reports {
		views = append(views, rp.view)
	}
	slices.Sort(views)
	views = slices.Compact(views)
	to := slices.Clone(views)
	for k := 2; k < len(to); k++ {
		to[k] = to[k-1] + min(views[k]-views[k-1], 2)
	}
	return func(v uint64) uint64 {
		k, _ := slices.BinarySearch(views, v)
		return to[k]
	}
}

// decode is encode's inverse.
func decode(c *cluster, b []byte) *world {
	u := func() uint64 {
		v, n := binary.Uvarint(b)
		b = b[n:]
		return v
	}
	by := func() byte {
		x := b[0]
		b = b[1:]
		return x
	}
	bs := func() []int8 {
		out := make([]int8, u())
		for i := range out {
			out[i] = int8(by())
		}
		return out
	}
	str := func() string {
		n := u()
		s := string(b[:n])
		b = b[n:]
		return s
	}
	w := &world{dead: make([]bool, len(c.servers)), slots: make([]*slot, len(c.servers))}
	for i := range w.slots {
		w.dead[i] = by() == 1
		if by() == 1 {
			s := &slot{view: u(), version: u(), writes: bs(), backups: bs(), liteFrom: u()}
			s.seg, s.holder = int8(by()), by() == 1
			w.slots[i] = s
		}
	}
	w.view, w.reps = u(), bs()
	if by() == 1 {
		w.recBy, w.joined = int8(by()), by() == 1
		r := &master.Recovery{Failed: str(), View: u(), Spec: c.spec, Servers: c.servers}
		view := u()
		r.Meta = c.meta(view, bs())
		r.Rounds = make([][]proto.ChunkResult, u())
		for k := range r.Rounds {
			r.Rounds[k] = make([]proto.ChunkResult, u())
			for j := range r.Rounds[k] {
				r.Rounds[k][j] = proto.ChunkResult{Status: proto.Status(by()), Version: u(), View: u()}
			}
		}
		w.rec = r
	}
	w.reports = make([]report, u())
	for k := range w.reports {
		w.reports[k] = report{view: u(), by: int8(by()), failed: str()}
	}
	cl := &w.cl
	cl.view, cl.sent, cl.reps = u(), u(), bs()
	cl.phase, cl.write, cl.acks, cl.primary = int8(by()), int8(by()), int8(by()), int8(by())
	cl.version, cl.next = u(), u()
	cl.msgs = make([]msg, u())
	for k := range cl.msgs {
		cl.msgs[k] = msg{to: int8(by()), write: int8(by())}
	}
	w.acked = make([]acked, u())
	for k := range w.acked {
		w.acked[k] = acked{write: int8(by()), version: u()}
	}
	w.writes, w.faults, w.passes = int(u()), int(u()), int(u())
	return w
}

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

// probe is a replica's answer to the version probe: OK at its version and
// view when its server is up and holds a slot.
func (w *world) probe(i int8) proto.ChunkResult {
	if i < 0 || w.dead[i] || w.slots[i] == nil {
		return proto.ChunkResult{Status: proto.StatusError}
	}
	return proto.ChunkResult{Status: proto.StatusOK, Version: w.slots[i].version, View: w.slots[i].view}
}

// holds reports whether server i is up and holds write a at its version.
func (w *world) holds(i int8, a acked) bool {
	s := w.slots[i]
	return !w.dead[i] && s != nil && s.version > a.version && uint64(len(s.writes)) > a.version && s.writes[a.version] == a.write
}

// check returns the first invariant the state breaks, or "".
func (w *world) check(c *cluster) string {
	if w.bad != "" {
		return w.bad
	}
	// No replica claims a version its bytes do not hold.
	for i, s := range w.slots {
		if s != nil && (uint64(len(s.writes)) != s.version || slices.Contains(s.writes, -1)) {
			return fmt.Sprintf("s%d claims version %d holding writes %v", i, s.version, s.writes)
		}
	}
	// Every position of the view holds its own piece.
	for pos, i := range w.reps {
		if s := w.slots[i]; s != nil && c.spec.IsRS() && (s.holder != (pos > 0) || pos > 0 && int(s.seg) != pos-1) {
			return fmt.Sprintf("s%d at position %d holds piece %d (holder %v)", i, pos, s.seg, s.holder)
		}
	}
	// Every acknowledged write is readable at its version from the current
	// view — unless every copy of it is on a crashed server, or a view change
	// is on its way to install the one left.
	for _, a := range w.acked {
		// recoverable reports whether a full copy, or N segments (RS), of it
		// is up on servers.
		recoverable := func(servers []int8, full func(k int) bool) bool {
			segs := 0
			for k, i := range servers {
				if w.holds(i, a) {
					if full(k) || !c.spec.IsRS() {
						return true
					}
					segs++
				}
			}
			return segs >= max(c.spec.N, 1)
		}
		all := make([]int8, len(w.slots))
		for i := range all {
			all[i] = int8(i)
		}
		held := recoverable(all, func(k int) bool { return !w.slots[k].holder })
		// A view change in flight may hold it only on a replacement it has
		// filled and not installed yet.
		if held && !recoverable(w.reps, func(k int) bool { return k == 0 }) && w.rec == nil {
			return fmt.Sprintf("acked write w%d at version %d is not readable from view %d %v", a.write, a.version, w.view, names(w.reps))
		}
		// A read the client's view admits returns it (zircon's read rule).
		for pos, i := range w.cl.reps {
			s := w.slots[i]
			if w.dead[i] || s == nil || c.spec.IsRS() && pos > 0 {
				continue
			}
			if chunkserver.ReadRule(s.view, s.version, w.cl.view, a.version+1) == proto.StatusOK && !w.holds(i, a) {
				return fmt.Sprintf("s%d serves a read of w%d at version %d without it: %v", i, a.write, a.version, s.writes)
			}
		}
	}
	// Agree implies equal bytes.
	answers := make([]proto.ChunkResult, len(w.reps))
	for k, i := range w.reps {
		answers[k] = w.probe(i)
	}
	if master.Agree(w.view, answers) {
		for _, i := range w.reps[1:] {
			if !slices.Equal(w.slots[i].writes, w.slots[w.reps[0]].writes) {
				return fmt.Sprintf("view %d agrees at version %d, but s%d holds %v and s%d %v",
					w.view, answers[0].Version, w.reps[0], w.slots[w.reps[0]].writes, i, w.slots[i].writes)
			}
		}
	}
	return ""
}

// describe renders a state for a trace.
func (w *world) describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "record v%d %v; client v%d %v", w.view, names(w.reps), w.cl.view, names(w.cl.reps))
	for i, s := range w.slots {
		if s == nil {
			continue
		}
		dead := ""
		if w.dead[i] {
			dead = " dead"
		}
		fmt.Fprintf(&b, "; s%d v%d @%d %v%s", i, s.view, s.version, s.writes, dead)
	}
	return b.String()
}

func names(reps []int8) []string {
	out := make([]string, len(reps))
	for i, r := range reps {
		out[i] = fmt.Sprintf("s%d", r)
	}
	return out
}
