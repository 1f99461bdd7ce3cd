package main

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"ursa/internal/bufpool"
	"ursa/internal/opctx"
	"ursa/internal/simdisk"
)

// counters is every cumulative count the benchmark reads through the
// layers' public interfaces, by name. Window deltas of these are what the
// per-op ratios are made of, and what the trace file records per window.
type counters map[string]float64

var processStart = time.Now()

var rtSamples = []rtmetrics.Sample{
	{Name: "/sched/latencies:seconds"},
	{Name: "/sync/mutex/wait/total:seconds"},
}

// snapshot reads every counter. It stops the world briefly (ReadMemStats),
// so the harness calls it only between windows.
func (s *sut) snapshot() counters {
	c := counters{}
	reg := s.cluster.Metrics()
	for _, st := range opctx.Stages() {
		if h := reg.StageHist(st.String()); h != nil {
			c["stage_n:"+st.String()] = float64(h.Count())
			c["stage_us:"+st.String()] = float64(h.Sum()) / float64(time.Microsecond)
		}
	}
	vs := s.vd.Stats()
	c["client_retries"], c["client_tiny_writes"] = float64(vs.Retries), float64(vs.TinyWrites)
	dev := func(kind string, st simdisk.Stats) {
		c[kind+"_ops"] += float64(st.Reads + st.Writes)
		c[kind+"_bytes"] += float64(st.BytesRead + st.BytesWrite)
		c[kind+"_seeks"] += float64(st.Seeks)
		c[kind+"_busy_us"] += float64(st.BusyTime) / float64(time.Microsecond)
	}
	for _, m := range s.cluster.Machines {
		for _, d := range m.SSDs {
			dev("ssd", d.Stats())
		}
		for _, d := range m.HDDs {
			dev("hdd", d.Stats())
		}
		for _, js := range m.JournalSets() {
			st := js.Stats()
			c["journal_flushes"] += float64(st.Flushes)
			c["journal_batched_records"] += float64(st.BatchedRecords)
			c["journal_replayed_bytes"] += float64(st.ReplayedBytes)
			c["journal_merged_sectors"] += float64(st.MergedSectors)
		}
	}
	c["bufpool_leases"] = float64(bufpool.Leases())

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c["mallocs"], c["alloc_bytes"] = float64(ms.Mallocs), float64(ms.TotalAlloc)
	c["gc_cycles"], c["gc_pause_ms"] = float64(ms.NumGC), float64(ms.PauseTotalNs)/1e6

	rtmetrics.Read(rtSamples)
	// Every goroutine hand-off (a parked goroutine made runnable, then
	// scheduled) adds one sample to the scheduling-latency histogram; the
	// runtime records 1 in 8, which is all a ratio of deltas needs.
	for _, n := range rtSamples[0].Value.Float64Histogram().Counts {
		c["wakeups"] += float64(n)
	}
	c["mutex_wait_us"] = rtSamples[1].Value.Float64() * 1e6
	c["cpu_us"] = cpuSeconds() * 1e6
	c["wall_us"] = float64(time.Since(processStart)) / float64(time.Microsecond)
	return c
}

// since returns c − start, name by name.
func (c counters) since(start counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		d[k] = v - start[k]
	}
	return d
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

// cpuSeconds is the process's user + system CPU time.
func cpuSeconds() float64 {
	ru := rusage()
	sec := func(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }
	return sec(ru.Utime) + sec(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }
