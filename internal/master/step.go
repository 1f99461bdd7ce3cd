package master

import (
	"time"

	"ursa/internal/chunkserver"
)

// Replication's steps: pure functions from what a master knows to what it
// does, in the style of Plan. replication.go executes them — the standby's
// batch handler, the shipper's ack handler, the primacy check and the
// promotion monitor — and the master-replication explorer
// (internal/mastercheck) runs them against a model of three masters.
//
// The rule they make is one: an entry is acknowledged once a majority of the
// masters holds it. It rests on three parts.
//   - Commit: a handler answers only once a majority of Peers holds its
//     entry (Committed); the primary counts itself, so a lone master is a
//     majority of one.
//   - Promotion: a standby promotes at a new epoch only when a majority has
//     promised it that epoch (Promise) and none of them ends its log later
//     than it does (Elect). A promise made, the promiser refuses every batch
//     of an older epoch, so whatever the old primary acknowledged is on a
//     promiser, and so on the candidate.
//   - Primacy: a primary answers only while a majority has acknowledged a
//     batch it sent within the last primacy window (Live). A master promises
//     only after a window without hearing its primary, so the old primary has
//     stopped answering — lease renewals included — before anyone promotes.

// Pos is a log position; see chunkserver.Pos, which a create carries.
type Pos = chunkserver.Pos

// Logged is a log entry as replication sees it: a position. The master's
// entry embeds its Pos.
type Logged interface{ At() Pos }

// At returns the position of the entry e.
func (e entry) At() Pos { return e.Pos }

// later orders log ends: the one whose last entry is of the later epoch, and
// at one epoch the longer, is the later.
func later(p, q Pos) bool {
	return p.Epoch > q.Epoch || p.Epoch == q.Epoch && p.Seq > q.Seq
}

// End returns where log ends: the position of its last entry.
func End[E Logged](log []E) Pos {
	if len(log) == 0 {
		return Pos{}
	}
	return log[len(log)-1].At()
}

// Role is a master's standing: the highest epoch it has taken part in, the
// master it follows there — itself once it promoted at Epoch, "" while it
// follows nobody — and whether it is primary. A master follows at most one
// master per epoch, which keeps an epoch to one primary.
type Role struct {
	Epoch   uint64
	Leader  string
	Primary bool
}

// StepDown is the one way a master leaves primacy or takes a newer epoch: it
// follows leader ("" for nobody known) at epoch, or, at its own epoch, keeps
// whom it follows there and stops being primary. An older epoch changes
// nothing.
func StepDown(r Role, epoch uint64, leader string) Role {
	switch {
	case epoch < r.Epoch:
		return r
	case epoch > r.Epoch:
		return Role{Epoch: epoch, Leader: leader}
	case r.Leader == "":
		return Role{Epoch: epoch, Leader: leader}
	}
	return Role{Epoch: epoch, Leader: r.Leader}
}

// Take is what a standby makes of a log batch: refuse it as Stale, or take
// Role, keep the first Keep entries of its log — the rest conflict with the
// batch — and append the batch's entries from index From on, after Held
// entries known to match the primary's log.
type Take struct {
	Stale bool
	Role  Role
	Keep  uint64
	From  int
	Held  uint64
}

// StepBatch is a standby's step on a batch of entries (none: a heartbeat)
// from the primary from at epoch, whose log up to prev the shipper believes
// this one shares. A batch of an older epoch, or from a second master at the
// epoch this one follows another in, is stale. Entries are compared by
// position: one this log holds at the same position is held already, one at
// another position cuts this log there. A batch that starts past the end of
// this log appends nothing. Held is what the standby acknowledges before
// appending: the batch's start when its entries are in reach, else the whole
// log if its last entry is this epoch's (an epoch's entries are its
// primary's), else prev if the log holds it, else nothing.
func StepBatch[E Logged](r Role, log []E, epoch uint64, from string, prev Pos, entries []E) Take {
	if epoch < r.Epoch || epoch == r.Epoch && r.Leader != "" && r.Leader != from {
		return Take{Stale: true, Role: r}
	}
	n := uint64(len(log))
	t := Take{Role: Role{Epoch: epoch, Leader: from}, Keep: n, From: len(entries)}
	if len(entries) > 0 && entries[0].At().Seq <= n+1 {
		t.From, t.Held = 0, entries[0].At().Seq-1
		for _, e := range entries {
			at := e.At()
			if at.Seq > n {
				break
			}
			if log[at.Seq-1].At() != at {
				t.Keep = at.Seq - 1
				break
			}
			t.From++
			t.Held++
		}
		return t
	}
	switch {
	case n > 0 && log[n-1].At().Epoch == epoch:
		t.Held = n
	case prev.Seq <= n && (prev.Seq == 0 || log[prev.Seq-1].At() == prev):
		t.Held = prev.Seq
	}
	return t
}

// Ship is the primary's record of one standby: Next, where its next batch
// starts; Match, how much of the primary's log it is known to hold; Heard,
// when the primary sent the last batch it acknowledged.
type Ship struct {
	Next, Match uint64
	Heard       time.Time
}

// StepAck is the shipper's step on a standby's acknowledgement, applied, of
// a batch of n entries from s.Next sent at sent, the primary's log then
// ending at end: the standby holds the log up to applied, and the next batch
// starts there. Again says to send it at once — the standby moved and more is
// waiting — and refused that it took nothing of a non-empty batch.
func StepAck(s Ship, sent time.Time, n int, end, applied uint64) (next Ship, again, refused bool) {
	again = applied > s.Next && applied < end
	refused = applied == s.Next && n > 0
	return Ship{Next: applied, Match: applied, Heard: sent}, again, refused
}

// majority is how many of n masters make a majority.
func majority(n int) int { return n/2 + 1 }

// Committed returns the highest sequence number a majority of the masters
// holds: the primary holds own, the standbys what ships records.
func Committed(own uint64, ships []Ship) uint64 {
	best := uint64(0)
	for i := -1; i < len(ships); i++ {
		v := own
		if i >= 0 {
			v = ships[i].Match
		}
		held := 1 // the primary holds everything
		for _, s := range ships {
			if s.Match >= v {
				held++
			}
		}
		if v > best && held >= majority(len(ships)+1) {
			best = v
		}
	}
	return best
}

// Live reports whether a primary whose standbys ships records holds primacy
// at now: a majority, the primary among it, acknowledged batches sent within
// the last ttl.
func Live(now time.Time, ttl time.Duration, ships []Ship) bool {
	heard := 1 // the primary hears itself
	for _, s := range ships {
		if now.Sub(s.Heard) < ttl {
			heard++
		}
	}
	return heard >= majority(len(ships)+1)
}

// Promise is a master's step on a candidate's probe for epoch: it promises
// the candidate that epoch — following it there, so refusing every batch of
// an older one — unless it is primary, it has heard its primary within the
// primacy window (fresh), or it has already taken part in epoch.
func Promise(r Role, fresh bool, epoch uint64, candidate string) Role {
	if r.Primary || fresh || epoch <= r.Epoch {
		return r
	}
	return Role{Epoch: epoch, Leader: candidate}
}

// Verdict is what a candidate makes of its probe's answers: Promote at the
// probed epoch, backed by the answers marked in Backed; or take Role.
type Verdict struct {
	Promote bool
	Role    Role
	Backed  []bool
}

// Elect is a candidate's step on the answers to its probe for epoch (nil: no
// answer), in the order of peers, it holding role r and a log ending at own.
// It promotes only when a majority, itself among it, promised epoch and none
// of its backers ends its log later than own — or as late and at a lower
// rank. A live primary at its epoch or later is followed instead, and an
// answer at a later epoch than the probe's is taken up. A master that has
// heard of no epoch yet — it joined, and no batch has reached it — never
// promotes: it may be a master that forgot an epoch it led, whose old
// followers would answer as its backers.
func Elect(self string, peers []string, r Role, own Pos, epoch uint64, answers []*MasterInfoResp) Verdict {
	v := Verdict{Role: r, Backed: make([]bool, len(answers))}
	votes, fresher, live := 1, false, false
	for i, a := range answers {
		switch {
		case a == nil:
		case a.IsPrimary && a.Epoch >= r.Epoch:
			live = true
			v.Role = StepDown(v.Role, a.Epoch, a.Self)
		case a.Epoch > epoch:
			v.Role = StepDown(v.Role, a.Epoch, "")
		case a.Epoch == epoch && a.Primary == self:
			v.Backed[i] = true
			votes++
			theirs := Pos{Epoch: a.LogEpoch, Seq: a.LogSeq}
			if later(theirs, own) || theirs == own && peerRank(peers, a.Self) < peerRank(peers, self) {
				fresher = true
			}
		}
	}
	v.Promote = r.Epoch > 0 && !live && !fresher && v.Role == r && votes >= majority(len(peers))
	return v
}
