package viewcheck

import (
	"fmt"
	"slices"
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
// violation found is one of the fewest events. The trace is replayed from the
// start, each step the one that reaches the next state on the path: the
// explorer's labels name canonical views (encode), the trace the real ones.
func explore(sc scope) outcome {
	x := &explorer{sc: sc, c: newCluster(sc)}
	start := initial(x.c)
	const root = 0
	seen := map[uint64]uint64{hash(start.encode(x.c)): root} // a state's parent
	var violation string
	var badParent uint64
	// The queue holds encoded states, a tenth of a world's size.
	for queue := [][]byte{start.encode(x.c)}; len(queue) > 0 && violation == ""; {
		enc := queue[0]
		queue[0] = nil
		queue = queue[1:]
		h := hash(enc)
		x.step(decode(x.c, enc), func(_ string, n *world) {
			if violation != "" {
				return
			}
			// A transition's own violation (bad) is not part of the state: a
			// state seen before may have been reached without it.
			if v := n.check(x.c); v != "" {
				violation, badParent = v, h
				return
			}
			nenc := n.encode(x.c)
			nh := hash(nenc)
			if _, ok := seen[nh]; ok {
				return
			}
			seen[nh] = h
			queue = append(queue, nenc)
		})
	}
	out := outcome{states: len(seen), violation: violation}
	if violation == "" {
		return out
	}
	var path []uint64 // the states from the start's successor to the bad one's parent
	for h := badParent; seen[h] != root; h = seen[h] {
		path = append(path, h)
	}
	slices.Reverse(path)
	w := start
	out.trace = append(out.trace, "start: "+w.describe())
	for i := 0; i <= len(path); i++ {
		var next *world
		var label string
		x.step(w, func(l string, n *world) {
			if next == nil && (i < len(path) && hash(n.encode(x.c)) == path[i] || i == len(path) && n.check(x.c) != "") {
				next, label = n, l
			}
		})
		w = next
		if i == len(path) {
			out.violation = w.check(x.c)
		}
		out.trace = append(out.trace, fmt.Sprintf("%d. %s\n     %s", i+1, label, w.describe()))
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
// a reconcile pass (tens of thousands of states, under a second), and each
// strategy past three faults, more than the chunk tolerates, with one write
// and with two: a view change must not evict the one live replica holding an
// acked write, nor install a view that misses a write the old view took
// while it was being read (the seal).
func TestExplore(t *testing.T) {
	for _, rs := range []bool{false, true} {
		run(t, scope{rs: rs, writes: 2, faults: 2, passes: 1})
		run(t, scope{rs: rs, writes: 1, faults: 3, passes: 1})
		run(t, scope{rs: rs, writes: 2, faults: 3, passes: 1})
	}
}

// BenchmarkViewCheck is the larger scope `make viewcheck` runs: each
// strategy, 3 writes, 3 faults and a reconcile pass. It is a benchmark so that
// a bare `go test ./...` never runs it; run it once (-benchtime 1x).
func BenchmarkViewCheck(b *testing.B) {
	for range b.N {
		for _, rs := range []bool{false, true} {
			run(b, scope{rs: rs, writes: 3, faults: 3, passes: 1})
		}
	}
}
