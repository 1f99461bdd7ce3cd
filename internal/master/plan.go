package master

import (
	"cmp"
	"fmt"
	"slices"

	"ursa/internal/chunkserver"
	"ursa/internal/proto"
	"ursa/internal/redundancy"
	"ursa/internal/util"
)

// The view change's planners: pure functions from what a view change knows
// to its next action. RecoverChunk (recovery.go) executes the actions; the
// view-change explorer (internal/viewcheck) runs them against a model.

// Recovery is what a view change knows: the chunk's record and redundancy,
// the report (Failed and View, as RecoverChunk's), the registered servers and
// one round of answers per action taken: a probe's one per address, a fill's
// one per replica (OK, at the view it answered at, when it filled).
type Recovery struct {
	Meta    ChunkMeta
	Spec    redundancy.Spec
	Failed  string
	View    uint64
	Servers []RegisterReq
	Rounds  [][]proto.ChunkResult
}

// Action is a view change's next step, one of: Probe the addresses ("" for
// one not asked), sealing them at view View when it is not 0; fill all of
// Fills to Version at once; Install view View with those replicas and record
// it (Mend: every replica answered the seal at one version, so views were its
// only cause); or answer, Err or the record as it stands.
type Action struct {
	Probe   []string
	Fills   []Fill
	Version uint64
	Install []ReplicaInfo
	View    uint64
	Mend    bool
	Err     error
}

// Fill is one replica's share of a fill: its address, a replacement's create
// (nil for a laggard; an existing slot is as good as a fresh one), and what
// the bytes come from. The replica picks how (chunkserver.FillRule).
type Fill struct {
	Addr   string
	Create *chunkserver.CreateChunkReq
	Req    chunkserver.FillReq
}

// Plan is the view change of §4.2.2 as a pure function of what r knows: the
// next action. A reporter below the recorded view is itself behind and gets
// the record, with no probe. Otherwise: (1) collect versions and views; a
// chunk whose replicas Agree, the reporter not above the record, needs no new
// view (dead devices keep re-reporting while records stay parked on them);
// (2) seal: a view change that will act probes again at a view above every
// one seen (above), which stops the old view before its versions are read,
// so a versionH read from the sealed answers is final; (3) pick versionH, the
// highest version sealed; (4) fill the laggards and a replacement for each
// failed replica from what holds versionH; (5) install a new view above the
// seal. The strategies plan steps 3–5 apart (planMirror, planRS): one merged
// planner would branch on strategy at five points. Whether a view change
// will act is its plan from the first probe, with no round to replay: one
// that fills nothing and installs nothing — no quorum, or nothing a fill
// could restore — seals nothing.
func Plan(r *Recovery) Action {
	if r.View != 0 && r.View < r.Meta.View {
		return Action{}
	}
	p := &replay{rounds: r.Rounds}
	skip, plan := r.Failed, planMirror // the mirror path trusts the reporter, RS probes it too
	if r.Spec.IsRS() {
		skip, plan = "", planRS
	}
	answers := p.probe(r.Meta.Replicas, skip, 0)
	if p.need != nil {
		return *p.need
	}
	if Agree(r.Meta.View, answers) && r.View <= r.Meta.View {
		return Action{}
	}
	dry := &replay{}
	if a := plan(r, dry, answers); dry.need == nil && a.Install == nil {
		return a
	}
	a := plan(r, p, p.probe(r.Meta.Replicas, skip, above(r, answers)))
	if p.need != nil {
		return *p.need
	}
	return a
}

// replay hands a planner the recorded answer to each action it takes, in
// order. The first with none is the next to take (need); it and every later
// one answer as if nobody did, and the verdict past it is discarded.
type replay struct {
	rounds [][]proto.ChunkResult
	need   *Action
}

func (p *replay) ask(a Action, n int) []proto.ChunkResult {
	if p.need != nil || len(p.rounds) == 0 {
		p.need = cmp.Or(p.need, &a)
		out := make([]proto.ChunkResult, n)
		for i := range out {
			out[i].Status = proto.StatusError
		}
		return out
	}
	out := p.rounds[0]
	p.rounds = p.rounds[1:]
	return out
}

// probe asks every replica but skip for its version and view, sealing it at
// seal when that is not 0.
func (p *replay) probe(replicas []ReplicaInfo, skip string, seal uint64) []proto.ChunkResult {
	addrs := make([]string, len(replicas))
	for i, r := range replicas {
		if r.Addr != skip {
			addrs[i] = r.Addr
		}
	}
	return p.ask(Action{Probe: addrs, View: seal}, len(addrs))
}

// planMirror plans steps 3–5 for a mirrored chunk: a majority, or fewer when
// the reporter named the missing replica crashed (§4.2.2's write-to-all
// property). Every laggard and replacement is filled in one action, each pick
// seeing the replicas and the picks before it, so no two share a machine; an
// SSD (primary) replica is replaced by an SSD server (§5.5). A replacement not
// placed or filled is left out: the chunk proceeds degraded, and the next
// report retries. The replica it was to replace is left out with it only when
// more than half of the recorded replicas are proven at versionH (answered at
// it or filled to it); otherwise it stays, as it may hold the one live copy of
// an acked write whose other holders crashed.
func planMirror(r *Recovery, p *replay, answers []proto.ChunkResult) Action {
	cm := r.Meta
	var versionH uint64
	var source chunkserver.FillReq // read at the view it answered at: the seal
	alive := 0
	for i, a := range answers {
		if a.Status != proto.StatusOK {
			continue
		}
		if alive++; a.Version >= versionH {
			versionH = a.Version
			source = chunkserver.FillReq{Source: cm.Replicas[i].Addr, View: a.View}
		}
	}
	if alive == 0 || alive*2 <= len(cm.Replicas) && r.Failed == "" {
		return Action{Err: fmt.Errorf("only %d/%d replicas reachable: %w", alive, len(cm.Replicas), util.ErrNoQuorum)}
	}
	var fills []Fill
	for i, a := range answers {
		if rep := cm.Replicas[i]; a.Status == proto.StatusOK && a.Version != versionH && rep.Addr != source.Source {
			fills = append(fills, Fill{Addr: rep.Addr, Req: source})
		}
	}
	laggards := len(fills)
	var picks []ReplicaInfo
	replacedBy := make([]int, len(answers)) // the pick replacing each dead replica, or -1
	for i, a := range answers {
		replacedBy[i] = -1
		rep := cm.Replicas[i]
		if a.Status == proto.StatusOK {
			continue
		}
		if cand, found := pick(r.Servers, append(slices.Clone(cm.Replicas), picks...), rep.Addr, rep.SSD); found {
			replacedBy[i] = len(picks)
			picks = append(picks, cand)
			fills = append(fills, Fill{Addr: cand.Addr, Create: &chunkserver.CreateChunkReq{View: cm.View}, Req: source})
		}
	}
	var filled []proto.ChunkResult
	if len(fills) > 0 {
		filled = p.ask(Action{Fills: fills, Version: versionH}, len(fills))
	}
	proven := 0 // replicas at versionH: answered at it, or filled to it
	for _, a := range answers {
		if a.Status == proto.StatusOK && a.Version == versionH {
			proven++
		}
	}
	for _, f := range filled {
		if f.Status == proto.StatusOK {
			proven++
		}
	}
	filled = filled[laggards:]
	var replicas []ReplicaInfo
	for i, a := range answers {
		switch k := replacedBy[i]; {
		case a.Status == proto.StatusOK:
			replicas = append(replicas, cm.Replicas[i])
		case k >= 0 && filled[k].Status == proto.StatusOK:
			replicas = append(replicas, picks[k])
		case proven*2 <= len(cm.Replicas):
			// A lost answer is no proof of a crash: with versionH on no
			// majority, the silent replica may hold the only live copy.
			replicas = append(replicas, cm.Replicas[i])
		}
	}
	for i, rep := range replicas { // keep the preferred primary (an SSD replica) first
		if rep.SSD {
			replicas[0], replicas[i] = replicas[i], replicas[0]
			break
		}
	}
	return install(r, answers, replicas)
}

// planRS plans steps 3–5 for an RS(N,M) chunk, whose replica list is
// position-keyed (Replicas[0] the primary, Replicas[1+i] segment i's holder):
// each position is filled in place or on a fresh server at that position, one
// at a time, primary first, since a holder's fill names the primary restored
// before it. Every fill names the primary once one holds versionH, and the
// holders that do; a fill that names no primary decodes (chunkserver
// rebuild.go). The reported replica is probed like any other: clients report
// on mere RPC timeouts, and evicting a live RS replica is expensive.
func planRS(r *Recovery, p *replay, answers []proto.ChunkResult) Action {
	cm, spec := r.Meta, r.Spec
	var versionH uint64
	drift := r.View > cm.View // the reporter or some replica is at a view other than the recorded one
	for _, a := range answers {
		if a.Status == proto.StatusOK {
			versionH = max(versionH, a.Version)
			drift = drift || a.View != cm.View
		}
	}
	// current reports whether a replica holds versionH. A sealed replica
	// drained its applies before it answered, so one below it is behind.
	current := func(pos int) bool {
		a := answers[pos]
		return a.Status == proto.StatusOK && a.Version == versionH
	}
	primaryOK := current(0)
	var sources []chunkserver.PieceSource
	for i, a := range answers[1:] {
		if a.Status == proto.StatusOK && a.Version == versionH {
			sources = append(sources, chunkserver.PieceSource{Addr: cm.Replicas[1+i].Addr, Piece: i, View: a.View})
		}
	}
	if !primaryOK && len(sources) < spec.N {
		return Action{Err: fmt.Errorf("version %d held by %d/%d segments and no primary: %w",
			versionH, len(sources), spec.N, util.ErrNoQuorum)}
	}
	replicas := slices.Clone(cm.Replicas)
	changed, repaired := false, false // membership changed; a replica was filled in place
	var primary chunkserver.FillReq
	var landed uint64 // the view the last filled replica answered at
	fillAt := func(pos int, addr string) bool {
		create := chunkserver.CreateChunkReq{View: cm.View, Redundancy: spec, Holder: pos > 0, Seg: max(pos-1, 0)}
		req := primary
		req.Sources = sources
		res := p.ask(Action{Fills: []Fill{{Addr: addr, Create: &create, Req: req}}, Version: versionH}, 1)[0]
		landed = res.View
		return res.Status == proto.StatusOK
	}
	// restore fills a position in place when its replica answered, else (or
	// when that fails: a live server over a dead device) on a fresh server —
	// never one the recorded view still names, whose slot a create for
	// another position would remake under that view. When none lands the
	// position keeps its entry and stays degraded.
	restore := func(pos int) bool {
		rep := replicas[pos]
		if answers[pos].Status == proto.StatusOK && fillAt(pos, rep.Addr) {
			repaired = true
			return true
		}
		target, found := pick(r.Servers, append(slices.Clone(cm.Replicas), replicas...), rep.Addr, rep.SSD || pos == 0)
		if !found || !fillAt(pos, target.Addr) {
			return false
		}
		replicas[pos], changed = target, true
		return true
	}
	if primaryOK {
		primary = chunkserver.FillReq{Source: cm.Replicas[0].Addr, View: answers[0].View}
	} else if restore(0) {
		primary = chunkserver.FillReq{Source: replicas[0].Addr, View: landed}
	}
	for i := 1; i < len(answers); i++ {
		if !current(i) {
			restore(i)
		}
	}
	// Repairing nothing bumps no view, or dead devices would churn views; a
	// view a replica holds and the log does not is mended all the same, and
	// so is a seal, which left every replica that answered it above the
	// record.
	if !changed && !repaired && !drift {
		return Action{}
	}
	return install(r, answers, replicas)
}

// install is the last action of every view change that changes anything: a
// view with replicas, numbered above the recorded view, the reporter's and
// every view a replica answered the seal with.
func install(r *Recovery, answers []proto.ChunkResult, replicas []ReplicaInfo) Action {
	a := Action{Install: replicas, View: above(r, answers), Mend: len(answers) > 0}
	for _, ans := range answers {
		a.Mend = a.Mend && ans.Status == proto.StatusOK && ans.Version == answers[0].Version
	}
	return a
}

// above numbers a seal or an install: one above the recorded view, the
// reporter's and every view a replica answered with, so it supersedes a view
// a dead master sealed, installed or handed out but never logged, and no
// reporter is answered below its view.
func above(r *Recovery, answers []proto.ChunkResult) uint64 {
	view := max(r.Meta.View, r.View)
	for _, a := range answers {
		if a.Status == proto.StatusOK {
			view = max(view, a.View)
		}
	}
	return view + 1
}

// pick chooses a registered server of the requested storage class whose
// machine hosts none of replicas but deadAddr — the replica being replaced,
// which does not pin its machine.
func pick(servers []RegisterReq, replicas []ReplicaInfo, deadAddr string, ssd bool) (ReplicaInfo, bool) {
	used := map[string]bool{}
	for _, r := range replicas {
		for _, s := range servers {
			if s.Addr == r.Addr && r.Addr != deadAddr {
				used[s.Machine] = true
			}
		}
	}
	for _, s := range servers {
		if s.SSD == ssd && s.Addr != deadAddr && !used[s.Machine] {
			return ReplicaInfo{Addr: s.Addr, SSD: s.SSD}, true
		}
	}
	return ReplicaInfo{}, false
}
