package bench

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
)

// allocSite names where a heap allocation is charged: the innermost frame
// of its stack that belongs to this module.
type allocSite struct {
	fn   string // package-qualified function, module prefix stripped
	line string // file:line of the commonest allocation inside fn
}

// siteCount is a site's cumulative allocations, and the bytes of them still
// in use as of the last collection.
type siteCount struct{ objects, bytes, inUse int64 }

// modulePrefix marks the frames the ledger attributes allocations to.
const modulePrefix = "ursa/internal/"

// allocProfile snapshots the cumulative allocation profile by site. With
// runtime.MemProfileRate = 1 every allocation is recorded, so the difference
// of two snapshots is an exact count.
func allocProfile() map[allocSite]siteCount {
	// The profile is published at GC and may lag by two cycles.
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	var recs []runtime.MemProfileRecord
	for n, ok := runtime.MemProfile(nil, true); !ok; n, ok = runtime.MemProfile(recs, true) {
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	n, _ := runtime.MemProfile(recs, true)
	out := make(map[allocSite]siteCount)
	for _, r := range recs[:n] {
		site := allocSite{fn: "(outside the module)"}
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if i := strings.Index(f.Function, modulePrefix); i >= 0 {
				file := f.File[strings.LastIndexByte(f.File, '/')+1:]
				site = allocSite{fn: f.Function[i+len(modulePrefix):], line: fmt.Sprintf("%s:%d", file, f.Line)}
				break
			}
			if !more {
				break
			}
		}
		c := out[site]
		c.objects += r.AllocObjects
		c.bytes += r.AllocBytes
		c.inUse += r.InUseBytes()
		out[site] = c
	}
	return out
}

// ledgerFloor is the allocs/op below which a site is folded into "other".
const ledgerFloor = 0.005

// FigAllocLedger prints where the end-to-end allocations of one op come
// from: the e2e cells of `make perf-smoke` (QD 1, zero-cost three-replica
// hybrid cluster: a 4 KiB read, a 4 KiB client-directed write, a 16 KiB
// primary-directed write, a 256 KiB striped write), and the QD 32 4 KiB
// write cell beside them for what queueing adds, run once each with every
// heap allocation profiled, charged to the innermost frame inside this module and divided by
// the ops completed. It is a diagnostic, not a gate — the gate is the total,
// in perf_baseline.json — so a regression there names its site.
func FigAllocLedger(cfg Config) Table {
	t := Table{
		Title:  "Allocation ledger: heap allocations per end-to-end op, by site",
		Header: []string{"op", "allocs/op", "B/op", "site", "at"},
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	cfg.Quick = true // the e2e gates' run length
	for _, cell := range []ceilingShape{
		{qd: 1}, {write: true, qd: 1}, {write: true, qd: 32}, e2ePrimary16k, e2eStriped256k,
	} {
		op := cell.String()
		s, spec, err := startCeiling(cfg, cell)
		if err != nil {
			t.failed(op, err)
			continue
		}
		measure(s.vd, spec) // one unprofiled pass: pools and scratch reach steady state
		before := allocProfile()
		res := measure(s.vd, spec)
		after := allocProfile()
		s.Close()
		if res.Ops == 0 {
			t.failed(op, errors.New("no ops completed"))
			continue
		}

		type row struct {
			site         allocSite
			allocs, size float64
			top          float64 // allocs/op of the line site.line names
		}
		byFn := make(map[string]*row) // lines of one function fold into its row
		var total, totalBytes, other, otherBytes float64
		for site, c := range after {
			if site.fn == "bench.allocProfile" {
				continue // the first snapshot's own garbage, published by the second
			}
			b := before[site]
			allocs := float64(c.objects-b.objects) / float64(res.Ops)
			size := float64(c.bytes-b.bytes) / float64(res.Ops)
			total += allocs
			totalBytes += size
			rw := byFn[site.fn]
			if rw == nil {
				rw = &row{site: site, top: allocs}
				byFn[site.fn] = rw
			} else if allocs > rw.top {
				rw.site.line, rw.top = site.line, allocs
			}
			rw.allocs += allocs
			rw.size += size
		}
		var rows []*row
		for _, rw := range byFn {
			if rw.allocs < ledgerFloor {
				other += rw.allocs
				otherBytes += rw.size
				continue
			}
			rows = append(rows, rw)
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].allocs > rows[j].allocs })
		for _, rw := range rows {
			t.Rows = append(t.Rows, []string{op, f2(rw.allocs), f0(rw.size), rw.site.fn, rw.site.line})
		}
		t.Rows = append(t.Rows,
			[]string{op, f2(other), f0(otherBytes), fmt.Sprintf("(sites below %g)", ledgerFloor), ""},
			[]string{op, f2(total), f0(totalBytes), "TOTAL", fmt.Sprintf("%d ops", res.Ops)})
	}
	t.Extra = append(t.Extra, footprintLedger())
	t.Notes = append(t.Notes,
		"a site is the innermost frame inside "+modulePrefix+" of the allocating stack; the lines of one function share a row;",
		"background work in the window (journal replay, index merges) is charged to the ops that caused it.")
	return t
}
