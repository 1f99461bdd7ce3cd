// Benchmarks that regenerate the paper's evaluation (§6): BenchmarkFigures
// has one sub-benchmark per entry of the figure registry (internal/bench.All
// — the list `ursa-bench -list` prints), each printing the same rows/series
// the paper plots, plus micro-benchmarks for the core data structures. Run:
//
//	go test -bench=. -benchmem
//	go test -bench=Figures/6a -short
//
// -short runs the figures at reduced op counts. Absolute numbers are at
// the suite's uniform ×10 slow-motion time scale (see internal/bench);
// EXPERIMENTS.md records paper-vs-measured per figure. Each figure runs
// through bench.Entry.Run, so with GOEXPERIMENT=synctest set a model-time
// figure runs in a synctest bubble: its model sleeps are exact and cost no
// wall time, and ns/op is the figure's wall time, not its model time.
package ursa_test

import (
	"fmt"
	"runtime/debug"
	"testing"

	"ursa/internal/bench"
	"ursa/internal/cachesim"
	"ursa/internal/jindex"
	"ursa/internal/jindex/flsm"
	"ursa/internal/proto"
	"ursa/internal/reliability"
	"ursa/internal/trace"
	"ursa/internal/util"
)

// BenchmarkFigures regenerates every table and figure of the registry; a
// figure that fails a check (bench.Table.Failed) fails its sub-benchmark.
func BenchmarkFigures(b *testing.B) {
	cfg := bench.Config{Quick: testing.Short(), Seed: 42}
	for _, e := range bench.All() {
		printed := false // once, even if the harness re-runs the figure to calibrate timing
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tab := e.Run(cfg)
				if !printed {
					printed = true
					fmt.Print("\n" + tab.String())
				}
				if tab.Failed() {
					b.Errorf("%s failed a check", tab.ID)
				}
			}
			// Figures allocate multi-GB simulated device stores; hand the
			// garbage back to the OS before the next figure builds its systems.
			debug.FreeOSMemory()
		})
	}
}

// --- Core data-structure micro-benchmarks --------------------------------

func BenchmarkJindexRangeInsert(b *testing.B) {
	ix := jindex.New(0)
	r := util.NewRand(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := uint32(r.Intn(jindex.MaxOff - 64))
		ix.Insert(off, uint32(r.Intn(64)+1), uint64(i))
		if i%200000 == 199999 {
			ix.MergeNow()
		}
	}
}

func BenchmarkJindexRangeQuery(b *testing.B) {
	ix := jindex.New(0)
	r := util.NewRand(2)
	for i := 0; i < 600000; i++ {
		ix.Insert(uint32(r.Intn(jindex.MaxOff-64)), uint32(r.Intn(64)+1), uint64(i))
	}
	ix.MergeNow()
	for i := 0; i < 100000; i++ {
		ix.Insert(uint32(r.Intn(jindex.MaxOff-64)), uint32(r.Intn(64)+1), uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Query(uint32(r.Intn(jindex.MaxOff-64)), uint32(r.Intn(64)+1))
	}
}

func BenchmarkFLSMRangeInsert(b *testing.B) {
	fl := flsm.New(1<<16, 8)
	r := util.NewRand(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl.RangeInsert(uint32(r.Intn(jindex.MaxOff-64)), uint32(r.Intn(64)+1), uint64(i))
	}
}

func BenchmarkFLSMRangeQuery(b *testing.B) {
	fl := flsm.New(1<<16, 8)
	r := util.NewRand(4)
	for i := 0; i < 100000; i++ {
		fl.RangeInsert(uint32(r.Intn(jindex.MaxOff-64)), uint32(r.Intn(64)+1), uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl.RangeQuery(uint32(r.Intn(jindex.MaxOff-64)), uint32(r.Intn(64)+1))
	}
}

func BenchmarkProtoEncodeDecode(b *testing.B) {
	m := &proto.Message{
		ID: 1, Op: proto.OpWrite, Chunk: 42, Off: 4096,
		View: 3, Version: 17, Payload: make([]byte, 4096),
	}
	var hdr [proto.HeaderSize]byte
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.EncodeHeader(hdr[:])
		var out proto.Message
		if _, err := out.DecodeHeader(hdr[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChecksum4K(b *testing.B) {
	buf := make([]byte, 4096)
	util.NewRand(5).Fill(buf)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		util.Checksum(buf)
	}
}

func BenchmarkCacheSimReplay(b *testing.B) {
	p := trace.Profile{Name: "bench", ReadFraction: 0.5, VolumeSize: util.GiB}
	recs := p.Generate(6, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cachesim.Replay("bench", recs)
	}
}

func BenchmarkReliabilityYear(b *testing.B) {
	fleet := reliability.DefaultFleet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reliability.Simulate(fleet, 100, 1, uint64(i))
	}
}

func BenchmarkTraceGenerate(b *testing.B) {
	p := trace.Profile{Name: "bench", ReadFraction: 0.5, VolumeSize: util.GiB}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Generate(uint64(i), 1000)
	}
}
