package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload at 1/20 size, end to end and traced, and
// checks that exactly the metrics BENCHMARK.json names come out, once each,
// finite, with their units, and that nothing failed or leaked.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricSpec            `json:"end_to_end"`
		PerLayer  []metricSpec            `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloadNames))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res, err := run(config{workload: w.Name, seed: 11, seconds: 0.35, trace: traced,
				shrink: 20, outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			var out bytes.Buffer
			if err := report(&out, res); err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			printed := map[string]int{}
			for _, l := range lines[:len(lines)-1] {
				if f := strings.Fields(l); len(f) == 3 {
					printed[f[0]+" "+f[2]]++
				}
			}
			var last struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s traced=%v: last line: %v", w.Name, traced, err)
			}
			if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced,
					last.Correct, last.Attempted, last.Failed)
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics in the result, BENCHMARK.json names %d",
					w.Name, traced, len(last.Metrics), len(want))
			}
			for _, m := range want {
				if !nameRE.MatchString(m.Name) {
					t.Errorf("bad metric name %q", m.Name)
				}
				if printed[m.Name+" "+m.Unit] != 1 {
					t.Errorf("%s traced=%v: %s [%s] printed %d times", w.Name, traced, m.Name, m.Unit,
						printed[m.Name+" "+m.Unit])
				}
				got, ok := last.Metrics[m.Name]
				if !ok || got.Value == nil || got.Unit != m.Unit ||
					math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0) {
					t.Errorf("%s traced=%v: %s missing, not finite or in the wrong unit: %+v",
						w.Name, traced, m.Name, got)
				}
			}
			if traced {
				for _, zero := range []string{"fail_frac", "bufpool.in_use_after"} {
					if v := last.Metrics[zero].Value; v == nil || *v != 0 {
						t.Errorf("%s: %s = %v, want 0", w.Name, zero, v)
					}
				}
			}
		}
	}
}
