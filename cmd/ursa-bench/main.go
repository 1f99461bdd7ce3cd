// Command ursa-bench regenerates the paper's evaluation tables and
// figures. Each figure builds its systems in-process (simulated disks and
// network) and prints the same rows/series the paper plots.
//
// Usage:
//
//	ursa-bench -list
//	ursa-bench -fig 6a
//	ursa-bench -all [-quick] [-seed N]
//	ursa-bench -fig ceiling -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	ursa-bench -fig ceiling -pprof :6060   # live net/http/pprof listener
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"ursa/internal/bench"
)

func main() { os.Exit(run()) }

// run is main's body, returning the exit status so the profile defers run
// before the process exits: 1 when a figure failed a check (Table.Failed) — a
// missed acceptance, or a cluster build, step or artifact write that failed.
func run() int {
	var (
		fig        = flag.String("fig", "", "figure/table id to run (1, 2, t1, 6a..16)")
		all        = flag.Bool("all", false, "run every figure and table")
		list       = flag.Bool("list", false, "list available figures")
		quick      = flag.Bool("quick", false, "reduced op counts")
		seed       = flag.Uint64("seed", 42, "randomness seed")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060) for the run's duration")
	)
	flag.Parse()

	entries := bench.All()
	if *list {
		for _, e := range entries {
			fmt.Println(e.ID)
		}
		return 0
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof listener: %v\n", err)
			}
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	cfg := bench.Config{Quick: *quick, Seed: *seed}
	status := 0
	runFig := func(e bench.Entry) {
		start := time.Now()
		tab := e.Run(cfg)
		fmt.Print(tab.String())
		fmt.Printf("(%s in %v)\n\n", tab.ID, time.Since(start).Round(time.Millisecond))
		if tab.Failed() {
			status = 1
		}
		// Figures allocate multi-GB simulated device stores; hand the
		// garbage back to the OS before building the next system.
		debug.FreeOSMemory()
	}
	switch {
	case *all:
		for _, e := range entries {
			runFig(e)
		}
	case *fig != "":
		e, ok := bench.Lookup(*fig)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q; use -list\n", *fig)
			return 1
		}
		runFig(e)
	default:
		flag.Usage()
		return 2
	}
	return status
}
