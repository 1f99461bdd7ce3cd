package viewcheck

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// explorer runs one breadth-first exploration of a scope.
type explorer struct {
	sc scope
	c  *cluster
}

// outcome is what an exploration found: the states it reached and, when an
// invariant broke, the violation and the shortest trace to it.
type outcome struct {
	states    int
	violation string
	trace     []string
}

// explore visits every state the scope reaches, breadth first, so the first
// violation found is one of the fewest events.
func explore(sc scope) outcome {
	x := &explorer{sc: sc, c: newCluster(sc)}
	start := initial(x.c)
	type node struct {
		parent uint64
		label  int32 // into labels
	}
	var labels []string
	ids := map[string]int32{}
	seen := map[uint64]node{hash(start.encode(x.c)): {label: -1}}
	var violation, badLabel string
	var badParent uint64
	// The queue holds encoded states, a tenth of a world's size.
	for queue := [][]byte{start.encode(x.c)}; len(queue) > 0 && violation == ""; {
		enc := queue[0]
		queue[0] = nil
		queue = queue[1:]
		h := hash(enc)
		x.step(decode(x.c, enc), func(label string, n *world) {
			if violation != "" {
				return
			}
			// A transition's own violation (bad) is not part of the state: a
			// state seen before may have been reached without it.
			if v := n.check(x.c); v != "" {
				violation, badLabel, badParent = v, label, h
				return
			}
			nenc := n.encode(x.c)
			nh := hash(nenc)
			if _, ok := seen[nh]; ok {
				return
			}
			id, ok := ids[label]
			if !ok {
				id = int32(len(labels))
				ids[label], labels = id, append(labels, label)
			}
			seen[nh] = node{parent: h, label: id}
			queue = append(queue, nenc)
		})
	}
	out := outcome{states: len(seen), violation: violation}
	if violation == "" {
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
		x.step(w, func(label string, n *world) {
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

// TestExplore checks the small scope: each strategy, 2 writes, 2 faults and
// a reconcile pass (tens of thousands of states, under a second), and one
// mirrored write past three faults, more than three replicas tolerate: a
// view change must not evict the one live replica holding an acked write.
func TestExplore(t *testing.T) {
	for _, rs := range []bool{false, true} {
		run(t, scope{rs: rs, writes: 2, faults: 2, passes: 1})
	}
	run(t, scope{rs: false, writes: 1, faults: 3, passes: 1})
}

// BenchmarkViewCheck is the larger scope `make viewcheck` runs: each
// strategy, 3 writes, 2 faults and a reconcile pass. It is a benchmark so that
// a bare `go test ./...` never runs it; run it once (-benchtime 1x).
func BenchmarkViewCheck(b *testing.B) {
	for range b.N {
		for _, rs := range []bool{false, true} {
			run(b, scope{rs: rs, writes: 3, faults: 2, passes: 1})
		}
	}
}
