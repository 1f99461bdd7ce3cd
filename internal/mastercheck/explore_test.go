package mastercheck

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// outcome is what an exploration found: the states it reached and, when an
// invariant broke, the violation and the shortest trace to it.
type outcome struct {
	states    int
	violation string
	trace     []string
}

// maxStates bounds an exploration's memory: a scope that outgrows it fails.
const maxStates = 2_000_000

// explore visits every state the scope reaches, breadth first, so the first
// violation found is one of the fewest events.
func explore(sc scope) outcome {
	start := initial()
	type node struct {
		parent uint64
		label  int32 // into labels
	}
	var labels []string
	ids := map[string]int32{}
	seen := map[uint64]node{hash(start.encode()): {label: -1}}
	var violation, badLabel string
	var badParent uint64
	for queue := []*world{start}; len(queue) > 0 && violation == ""; {
		if len(seen) > maxStates {
			violation = fmt.Sprintf("the scope outgrew %d states", maxStates)
			break
		}
		w := queue[0]
		queue[0] = nil
		queue = queue[1:]
		h := hash(w.encode())
		step(sc, w, func(label string, n *world) {
			if violation != "" {
				return
			}
			if v := n.check(sc); v != "" {
				violation, badLabel, badParent = v, label, h
				return
			}
			nh := hash(n.encode())
			if _, ok := seen[nh]; ok {
				return
			}
			id, ok := ids[label]
			if !ok {
				id = int32(len(labels))
				ids[label], labels = id, append(labels, label)
			}
			seen[nh] = node{parent: h, label: id}
			queue = append(queue, n)
		})
	}
	out := outcome{states: len(seen), violation: violation}
	if violation == "" || badLabel == "" {
		return out
	}
	path := []string{badLabel}
	for h := badParent; seen[h].label >= 0; h = seen[h].parent {
		path = append(path, labels[seen[h].label])
	}
	// Replay the labels from the start to describe each state on the way.
	w := start
	out.trace = append(out.trace, "start: "+w.describe())
	for i := len(path) - 1; i >= 0; i-- {
		var next *world
		step(sc, w, func(label string, n *world) {
			if next == nil && label == path[i] {
				next = n
			}
		})
		w = next
		out.trace = append(out.trace, fmt.Sprintf("%d. %s\n     %s", len(path)-i, path[i], w.describe()))
	}
	return out
}

// run explores sc and fails t (or b) with the trace of a violation; it
// returns the states explored.
func run(tb testing.TB, sc scope) int {
	t0 := time.Now()
	out := explore(sc)
	tb.Logf("%v: %d states in %v", sc, out.states, time.Since(t0).Round(time.Millisecond))
	if out.violation != "" {
		tb.Errorf("%v: %s\ntrace:\n%s", sc, out.violation, strings.Join(out.trace, "\n"))
	}
	return out.states
}

// TestExplore checks the small scopes (a second or two each): two commits
// and a fault, one commit and two faults, and two creates and two crashes or
// timers where a crash loses the log.
func TestExplore(t *testing.T) {
	run(t, scope{commits: 2, faults: 1})
	run(t, scope{commits: 1, faults: 2})
	run(t, scope{commits: 2, faults: 2, amnesia: true})
}

// BenchmarkMasterCheck is the larger scope `make mastercheck` runs: three
// commits and a fault, two commits and two faults (a million states, half a
// minute and half a gigabyte; three commits and two faults are some twenty
// times that), and two creates and three crashes or timers where a crash
// loses the log — the least that hands a vdisk ID out again at another log
// position. It is a benchmark so that a bare `go test ./...` never runs it;
// run it once (-benchtime 1x).
func BenchmarkMasterCheck(b *testing.B) {
	for range b.N {
		run(b, scope{commits: 3, faults: 1})
		run(b, scope{commits: 2, faults: 2})
		run(b, scope{commits: 2, faults: 3, amnesia: true})
	}
}
