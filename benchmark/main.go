// Command benchmark is this repository's benchmark: four closed-loop vdisk
// workloads on tick-scale device models, six end-to-end metrics measured
// with tracing off, and a separate traced run that reports every layer's
// counters and probes. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

func main() {
	if err := runMain(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func runMain() error {
	var cfg config
	var trace, repeat int
	flag.StringVar(&cfg.workload, "workload", "", "one of rand-read4k, rand-write4k, mixed-hot16k, seq-write256k")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of every offset, op kind and payload")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured time")
	flag.IntVar(&trace, "trace", 0, "1 = the traced per-layer run, 0 = the end-to-end run")
	flag.IntVar(&repeat, "repeat", 0, "run two sets of N passes of every workload and print their spread")
	flag.StringVar(&cfg.outDir, "out", defaultOutDir(), "directory of the trace file")
	flag.Parse()
	cfg.trace = trace != 0

	if repeat > 0 {
		return runRepeat(repeat, cfg.seed, cfg.seconds)
	}
	res, err := run(cfg)
	if err != nil {
		return err
	}
	return report(os.Stdout, res)
}

// defaultOutDir is benchmark/out whether the command runs from the
// repository root or from its own directory.
func defaultOutDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return "benchmark/out"
	}
	return "out"
}

// report prints one line per metric, then the result object as the last
// line. Failed or mis-verified ops make it an error after printing.
func report(w io.Writer, res result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]value{}}
	for _, m := range res.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		fmt.Fprintf(w, "%-36s %16.6f %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	if res.failed != 0 {
		return fmt.Errorf("%d of %d ops failed or returned wrong data", res.failed, res.attempted)
	}
	return nil
}
