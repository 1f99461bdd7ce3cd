package viewcheck

import (
	"errors"
	"fmt"
	"slices"

	"ursa/internal/chunkserver"
	"ursa/internal/master"
	"ursa/internal/proto"
	"ursa/internal/util"
)

// Reporters: whose report a view change answers.
const (
	byOther  = iota // a chunk server, or a client other than the model's
	byClient        // the client's report of a write that did not commit: it waits
	byLater         // the client's report of a degraded commit: it adopts the answer
)

// step calls emit with every state one event away from w.
func (x *explorer) step(w *world, emit func(label string, n *world)) {
	c, fault := x.c, w.faults < x.sc.faults
	cl := &w.cl
	switch cl.phase {
	case idle:
		if w.writes < x.sc.writes {
			n := w.clone()
			n.cl.write, n.cl.version, n.cl.phase = int8(w.writes), cl.next, sending
			n.writes++
			n.send(c)
			emit(fmt.Sprintf("client sends w%d at version %d in view %d", n.cl.write, n.cl.version, cl.view), n)
		}
	case sending:
		for k, m := range cl.msgs {
			n := w.clone()
			shipped := n.deliver(c, k, false, -1)
			emit(fmt.Sprintf("deliver w%d to s%d", m.write, m.to), n)
			if !fault {
				continue
			}
			n = w.clone()
			n.faults++
			n.deliver(c, k, true, -1)
			emit(fmt.Sprintf("FAULT lose w%d to s%d", m.write, m.to), n)
			for drop := range shipped {
				n := w.clone()
				n.faults++
				n.deliver(c, k, false, drop)
				emit(fmt.Sprintf("deliver w%d to s%d, FAULT its shipment to holder %d lost", m.write, m.to, drop), n)
			}
		}
	case reporting:
		n := w.clone()
		n.clientReport(c)
		emit(fmt.Sprintf("client reports from view %d", cl.sent), n)
	}

	if w.rec != nil {
		x.recStep(w, emit)
	} else if len(w.reports) > 0 {
		n := w.clone()
		rp := n.reports[0]
		n.reports = n.reports[1:]
		n.begin(c, &master.Recovery{Failed: rp.failed, View: rp.view}, rp.by)
		emit(fmt.Sprintf("master takes report (view %d, failed %q)", rp.view, rp.failed), n)
	}

	if w.passes < x.sc.passes {
		n := w.clone()
		n.reconcile(c)
		emit("reconcile pass", n)
	}

	if !fault {
		return
	}
	for i := range w.dead {
		if !w.dead[i] {
			n := w.clone()
			n.dead[i] = true
			n.faults++
			emit(fmt.Sprintf("FAULT crash s%d", i), n)
		}
	}
	if w.view > 1 {
		for _, failed := range append([]int8{-1}, w.reps...) {
			n := w.clone()
			n.faults++
			rp := report{view: w.view - 1, by: byOther}
			if failed >= 0 {
				rp.failed = c.servers[failed].Addr
			}
			n.file(rp)
			emit(fmt.Sprintf("FAULT stale client report (view %d, failed %q)", rp.view, rp.failed), n)
		}
	}
}

// send puts the client's write on the wire: to every replica of its view
// (mirror: client-directed), or to the primary, which ships to its holders
// (RS).
func (w *world) send(c *cluster) {
	cl := &w.cl
	cl.acks, cl.primary, cl.msgs, cl.sent = 0, 0, nil, cl.view
	for pos, i := range cl.reps {
		if pos == 0 || !c.spec.IsRS() {
			cl.msgs = append(cl.msgs, msg{to: i, write: cl.write})
		}
	}
}

// deliver lands message k of the client's write (lost: it never arrives)
// and, once the last is in, decides the write by the strategy's commit rule.
// An RS primary that applies it ships to its holders in the same step, and
// the shipment to holder drop is lost; it returns how many it shipped. (The
// shipments land together: a probe between two of them is out of scope.)
func (w *world) deliver(c *cluster, k int, lost bool, drop int) (shipped int) {
	cl := &w.cl
	m := cl.msgs[k]
	cl.msgs = slices.Delete(slices.Clone(cl.msgs), k, k+1)
	ok := w.apply(m.to, lost)
	switch {
	case c.spec.IsRS() && ok:
		cl.primary = 1
		for h, b := range w.slots[m.to].backups {
			shipped++
			if w.apply(b, h == drop) {
				cl.acks++
			} else {
				w.file(report{failed: c.servers[b].Addr, by: byOther}) // the primary reports the holder
			}
		}
	case c.spec.IsRS():
		cl.primary = -1
		if lost || w.dead[m.to] {
			w.file(report{view: cl.sent, failed: c.servers[m.to].Addr, by: byLater})
		}
	case ok:
		cl.acks++
	}
	if len(cl.msgs) > 0 {
		return shipped
	}
	committed := cl.acks*2 > int8(len(cl.reps))
	if c.spec.IsRS() {
		committed = cl.primary == 1 && c.strat.CommitOK(int(cl.acks), shipped)
	} else if committed && int(cl.acks) < len(cl.reps) {
		w.file(report{view: cl.sent, by: byLater})
	}
	cl.acks, cl.primary = 0, 0 // decided: forget the tally, so equal states hash equal
	if !committed {
		cl.phase = reporting
		return shipped
	}
	w.acked = append(w.acked, acked{write: cl.write, version: cl.version})
	cl.next, cl.phase, cl.write, cl.version, cl.sent = cl.version+1, idle, 0, 0, 0
	return shipped
}

// apply runs the client's write through server i's version rule (lost: it
// never arrives) and reports whether the server acks it.
func (w *world) apply(i int8, lost bool) bool {
	s := w.slots[i]
	if lost || w.dead[i] || s == nil {
		return false
	}
	switch step, _ := chunkserver.WriteRule(s.view, s.version, s.version, w.cl.sent, w.cl.version, true); step {
	case chunkserver.WriteApply:
		s.writes = append(s.writes, w.cl.write)
		s.version++
		return true
	case chunkserver.WriteDuplicate:
		return true
	}
	return false
}

// file queues a report for the master unless one of the same reporter is
// queued: a reporter keeps one in flight per chunk.
func (w *world) file(rp report) {
	if !slices.ContainsFunc(w.reports, func(q report) bool { return q.by == rp.by }) {
		w.reports = append(w.reports, rp)
	}
}

// load fills in what RecoverChunk reads from the master's state.
func (w *world) load(c *cluster, r *master.Recovery) {
	r.Meta, r.Spec, r.Servers = c.meta(w.view, w.reps), c.spec, c.servers
}

// clientReport files the client's report of a write that did not commit, as
// RecoverChunk takes it: answered at once when the plan needs no probe, else
// joined to the view change in flight, else the one that starts.
func (w *world) clientReport(c *cluster) {
	r := &master.Recovery{View: w.cl.sent}
	w.load(c, r)
	w.cl.phase = waiting
	switch {
	case master.Plan(r).Probe == nil:
		w.answer(c, r, byClient, r.Meta, nil, false)
	case w.rec != nil:
		w.joined = true
	default:
		w.rec, w.recBy = r, byClient
	}
}

// begin starts a view change for a queued report (RecoverChunk's front).
func (w *world) begin(c *cluster, r *master.Recovery, by int8) {
	w.load(c, r)
	if master.Plan(r).Probe == nil {
		w.answer(c, r, by, r.Meta, nil, false)
		return
	}
	w.rec, w.recBy = r, by
}

// recStep executes the next action of the view change in flight, once per
// way the action can go.
func (x *explorer) recStep(w *world, emit func(string, *world)) {
	c, fault := x.c, w.faults < x.sc.faults
	a := master.Plan(w.rec)
	switch {
	case a.Err != nil:
		n := w.clone()
		n.end(c, master.ChunkMeta{}, a.Err, false)
		emit(fmt.Sprintf("master answers %v", a.Err), n)
	case a.Probe != nil:
		x.probe(w, a, emit)
	case a.Fills != nil:
		for lose := -1; lose < len(a.Fills); lose++ {
			for _, effect := range []bool{false, true} {
				if lose >= 0 && !fault || lose < 0 && effect {
					continue
				}
				n := w.clone()
				round := make([]proto.ChunkResult, len(a.Fills))
				for k, f := range a.Fills {
					if k != lose || effect {
						round[k] = n.fill(c, f, a.Version, n.rec.Meta.View)
					}
					if k == lose {
						round[k] = proto.ChunkResult{Status: proto.StatusError}
					}
				}
				n.rec.Rounds = append(n.rec.Rounds, round)
				label := fmt.Sprintf("master fills %v to version %d: %v", fills(a.Fills), a.Version, results(round))
				if lose >= 0 {
					n.faults++
					label = fmt.Sprintf("FAULT %s, the fill of %s lost (applied: %v)", label, a.Fills[lose].Addr, effect)
				}
				emit(label, n)
			}
		}
	case a.Install != nil:
		x.install(w, a, emit)
	default:
		n := w.clone()
		n.end(c, n.rec.Meta, nil, false)
		emit("master answers the record", n)
	}
}

// probe executes a probe: every replica asked answers its version and view,
// once it has taken the seal when the probe carries one. A fault loses one
// OK answer — its replica took the seal all the same — or, for a seal, the
// message on its way. (The replicas answer together: a write landing between
// two answers is out of scope.)
func (x *explorer) probe(w *world, a master.Action, emit func(string, *world)) {
	c, fault := x.c, w.faults < x.sc.faults
	type loss struct {
		k      int  // the answer lost, -1 for none
		sealed bool // its replica took the seal
	}
	losses := []loss{{k: -1}}
	for k, addr := range a.Probe {
		if fault && w.probe(c.index(addr)).Status == proto.StatusOK {
			losses = append(losses, loss{k, true})
			if a.View != 0 {
				losses = append(losses, loss{k, false})
			}
		}
	}
	verb := "probes"
	if a.View != 0 {
		verb = fmt.Sprintf("seals at view %d", a.View)
	}
	for _, l := range losses {
		n := w.clone()
		round := make([]proto.ChunkResult, len(a.Probe))
		for k, addr := range a.Probe {
			if a.View != 0 && (k != l.k || l.sealed) {
				n.seal(c.index(addr), a.View)
			}
			round[k] = n.probe(c.index(addr))
		}
		label := fmt.Sprintf("master %s %v: %v", verb, a.Probe, results(round))
		if l.k >= 0 {
			n.faults++
			round[l.k] = proto.ChunkResult{Status: proto.StatusError}
			what := "answer"
			if !l.sealed {
				what = "seal"
			}
			label = fmt.Sprintf("FAULT master %s %v: %v, the %s of %s lost", verb, a.Probe, results(round), what, a.Probe[l.k])
		}
		n.rec.Rounds = append(n.rec.Rounds, round)
		emit(label, n)
	}
}

// seal has server i's replica, when it is up, take a view change's seal as
// handleGetVersion does.
func (w *world) seal(i int8, view uint64) {
	if i >= 0 && !w.dead[i] && w.slots[i] != nil && chunkserver.SetViewRule(w.slots[i].view, view) == proto.StatusOK {
		w.slots[i].view = view
	}
}

// install executes an install: normally every replica takes the view and the
// master records it; a lost message misses one replica; a failed install
// (the master deposed) reaches none and records nothing; an install whose
// record no majority of masters came to hold reaches every replica, and the
// reporter is refused — a master answers only once a majority holds the
// entry — while the master that promotes next keeps the old record.
func (x *explorer) install(w *world, a master.Action, emit func(string, *world)) {
	c, fault := x.c, w.faults < x.sc.faults
	reps := c.reps(master.ChunkMeta{Replicas: a.Install})
	meta := c.meta(a.View, reps)
	setView := func(n *world, skip int) {
		for pos, i := range reps {
			if s := n.slots[i]; pos != skip && !n.dead[i] && s != nil && chunkserver.SetViewRule(s.view, a.View) == proto.StatusOK {
				s.view, s.backups = a.View, nil
				if pos == 0 && c.spec.IsRS() {
					s.backups = slices.Clone(reps[1:])
				}
			}
		}
	}
	label := fmt.Sprintf("master installs view %d %v", a.View, names(reps))
	n := w.clone()
	setView(n, -1)
	n.view, n.reps = a.View, reps
	n.end(c, meta, nil, true)
	emit(label, n)
	if !fault {
		return
	}
	for skip := range reps {
		n := w.clone()
		n.faults++
		setView(n, skip)
		n.view, n.reps = a.View, reps
		n.end(c, meta, nil, true)
		emit(fmt.Sprintf("FAULT %s, s%d misses it", label, reps[skip]), n)
	}
	n = w.clone()
	n.faults++
	n.end(c, master.ChunkMeta{}, errors.New("deposed"), false)
	emit(fmt.Sprintf("FAULT %s fails: nothing installed or recorded", label), n)
	n = w.clone()
	n.faults++
	setView(n, -1)
	n.end(c, master.ChunkMeta{}, util.ErrNoQuorum, false)
	emit(fmt.Sprintf("FAULT %s, and no majority holds its record: the reporter is refused", label), n)
}

// fill executes one replica's fill, as handleFill and the rebuild engine do,
// and returns what the master's fill makes of the answer.
func (w *world) fill(c *cluster, f master.Fill, version, view uint64) proto.ChunkResult {
	failed := proto.ChunkResult{Status: proto.StatusError}
	i := c.index(f.Addr)
	if w.dead[i] {
		return failed
	}
	if cr := f.Create; cr != nil {
		if s := w.slots[i]; s != nil && chunkserver.Outdated(s.view, chunkserver.Pos{}, c.spec, s.holder, int(s.seg), *cr) {
			w.slots[i] = nil
		}
		if w.slots[i] == nil {
			w.slots[i] = &slot{view: cr.View, holder: cr.Holder, seg: int8(cr.Seg)}
		}
	}
	s := w.slots[i]
	if s == nil {
		return failed
	}
	// source is a replica a fill reads, admitted at want or later.
	source := func(addr string, view, want uint64) *slot {
		j := c.index(addr)
		if j < 0 || w.dead[j] || w.slots[j] == nil || chunkserver.ReadRule(w.slots[j].view, w.slots[j].version, view, want) != proto.StatusOK {
			return nil
		}
		return w.slots[j]
	}
	var writes []int8
	var installed uint64
	whole := true
	method := chunkserver.FillRule(f.Req, c.spec, s.holder, false, s.view, s.version, view)
	if method == chunkserver.FillRepair {
		src := source(f.Req.Source, f.Req.View, s.version)
		switch {
		case src == nil || src.version < version:
			return failed
		case s.version < src.liteFrom:
			method = chunkserver.FillCopy // the source's history is gone: a whole copy
		default:
			writes = append(slices.Clone(s.writes[:s.version]), src.writes[s.version:]...)
			installed, whole = src.version, false
		}
	}
	switch method {
	case chunkserver.FillDecode:
		var pieces [][]int8
		for _, p := range f.Req.Sources {
			if src := source(p.Addr, p.View, version); src != nil && src.version == version {
				pieces = append(pieces, src.writes)
			}
		}
		if len(pieces) < c.spec.N {
			return failed
		}
		writes, installed = slices.Clone(pieces[0]), version
		for _, p := range pieces[1:c.spec.N] {
			if !slices.Equal(p, pieces[0]) {
				writes = slices.Repeat([]int8{-1}, int(version))
			}
		}
	case chunkserver.FillSnapshot, chunkserver.FillCopy:
		src := source(f.Req.Source, f.Req.View, version)
		if src == nil || method == chunkserver.FillSnapshot && src.holder {
			return failed
		}
		writes, installed = slices.Clone(src.writes), src.version
	}
	s.writes = writes
	s.version = chunkserver.Adopted(s.version, installed, whole)
	s.view = max(s.view, view)
	if whole {
		s.liteFrom = installed
	}
	if s.version < version {
		return failed
	}
	return proto.ChunkResult{Status: proto.StatusOK, Version: s.version, View: s.view}
}

// end closes the view change in flight with its answer.
func (w *world) end(c *cluster, meta master.ChunkMeta, err error, installed bool) {
	r, by := w.rec, w.recBy
	w.rec, w.recBy = nil, byOther
	w.answer(c, r, by, meta, err, installed)
	if w.joined {
		// A report that waited shares the outcome: the record as it stands
		// then — the view just answered, when one was.
		w.joined = false
		if err != nil || !installed {
			meta = c.meta(w.view, w.reps)
		}
		w.answer(c, &master.Recovery{View: w.cl.sent}, byClient, meta, nil, false)
	}
}

// answer hands a reporter its answer, and checks that views only grow for
// it: a reporter behind the record is never refused, and a new view is
// numbered above the one it reported from.
func (w *world) answer(c *cluster, r *master.Recovery, by int8, meta master.ChunkMeta, err error, installed bool) {
	switch {
	case err != nil && r.View != 0 && r.View < r.Meta.View:
		w.bad = fmt.Sprintf("a reporter in view %d, behind the record's %d, was refused: %v", r.View, r.Meta.View, err)
	case err == nil && installed && r.View != 0 && meta.View <= r.View:
		w.bad = fmt.Sprintf("a reporter in view %d was answered with a new view %d", r.View, meta.View)
	}
	cl := &w.cl
	if by == byOther {
		return
	}
	if err == nil && meta.View > cl.view {
		cl.view, cl.reps = meta.View, c.reps(meta)
	}
	if by == byClient {
		if err != nil {
			cl.phase = reporting
			return
		}
		cl.phase = sending
		w.send(c)
	}
}

// reconcile runs one pass: every server up answers its inventory, and a slot
// outside the replica list at a view below the recorded one is deleted. A
// replica of the view whose server answered without its slot is filed for
// repair. Afterwards no slot outside the list below the view is left on a
// server that answered.
func (w *world) reconcile(c *cluster) {
	w.passes++
	for i, s := range w.slots {
		if s != nil && !w.dead[i] && !slices.Contains(w.reps, int8(i)) && s.view < w.view {
			w.slots[i] = nil
		}
	}
	for _, i := range w.reps {
		if !w.dead[i] && w.slots[i] == nil {
			w.file(report{failed: c.servers[i].Addr, by: byOther})
			break
		}
	}
}

func results(round []proto.ChunkResult) string {
	out := ""
	for _, r := range round {
		if r.Status == proto.StatusOK {
			out += fmt.Sprintf("[@%d v%d]", r.Version, r.View)
		} else {
			out += "[" + r.Status.String() + "]"
		}
	}
	return out
}

func fills(fs []master.Fill) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Addr
		if f.Create != nil {
			out[i] += "(new)"
		}
	}
	return out
}
