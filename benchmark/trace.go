package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one record of the trace file. Times are nanoseconds since process
// start. A window span's Counters are the deltas of every counter between
// the window's start and its post-drain end.
type span struct {
	ID       int      `json:"id"`
	Parent   int      `json:"parent"` // 0 = the run
	Name     string   `json:"name"`
	Kind     string   `json:"kind"` // setup | window | op | verify | probe
	Start    int64    `json:"start_ns"`
	End      int64    `json:"end_ns"`
	Op       int64    `json:"op"`     // harness op sequence; -1 for non-op spans
	Worker   int      `json:"worker"` // -1 for non-op spans
	Window   int      `json:"window"`
	Counters counters `json:"counters,omitempty"`
}

// opSpan is what a worker records per vdisk call; it becomes a span when
// the file is written, so the measured loop only appends a small struct.
type opSpan struct {
	start, end time.Time
	seq        int64
	window     int
	write      bool
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing. Only the harness goroutine calls it; workers append to
// their own opSpan slices.
type tracer struct {
	on      bool
	spans   []span
	windows map[int]int // window index -> its span's ID
}

func newTracer(on bool) *tracer { return &tracer{on: on, windows: map[int]int{}} }

func sinceStart(t time.Time) int64 { return int64(t.Sub(processStart)) }

// begin opens a harness-level span and returns its ID.
func (t *tracer) begin(name, kind string, window int) int {
	if !t.on {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Kind: kind, Start: sinceStart(time.Now()),
		Op: -1, Worker: -1, Window: window})
	if kind == "window" {
		t.windows[window] = id
	}
	return id
}

// end closes span id, attaching c when given.
func (t *tracer) end(id int, c counters) {
	if !t.on {
		return
	}
	t.spans[id-1].End = sinceStart(time.Now())
	t.spans[id-1].Counters = c
}

// addOps appends a worker's op spans as children of their windows.
func (t *tracer) addOps(worker int, ops []opSpan) {
	for _, o := range ops {
		name := "read"
		if o.write {
			name = "write"
		}
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.windows[o.window], Name: name,
			Kind: "op", Start: sinceStart(o.start), End: sinceStart(o.end),
			Op: o.seq, Worker: worker, Window: o.window})
	}
}

func (t *tracer) count() int { return len(t.spans) }

// write stores the spans as dir/trace-<workload>-<seed>.json.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", workload, seed))
	buf, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf, 0o644)
}
