package bench

import (
	"fmt"
	"runtime"

	"ursa/internal/master"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// controlPlaneCounts measures what a vdisk's birth, attach and death cost the
// chunk servers in messages: a 16 GiB vdisk (256 chunks, 768 replicas) is
// created, opened and deleted on the ceiling figure's zero-cost cluster, and
// every request a chunk server receives is counted (the servers' admission
// sample, one per request). The `control-plane` gate of make perf-smoke: with
// every fan-out one message per server the counts are the servers that hold
// a replica — 12 of this cluster's 18, placement being what it is — whatever
// the vdisk's size; a fan-out that goes back to a message per chunk shows as
// hundreds.
//
// `control-plane-3m` is the same create and open on the same cluster with
// three masters, where every commit waits for a majority: its messages are
// the chunk servers' requests and the log batches the primary master ships
// its standbys, and its allocations are the whole process's heap allocations
// over each step. A commit that stops waiting for a standby, or a round trip
// added to one, moves them. The note is each phase's wall time, which on
// this cluster is CPU time: for the log, not for the gate.
func controlPlaneCounts() (counts map[string]map[string]float64, note string, err error) {
	counts = make(map[string]map[string]float64)
	for _, masters := range []int{1, 3} {
		row, rowNote, err := controlPlaneRow(masters)
		name := "control-plane"
		if masters > 1 {
			name = fmt.Sprintf("control-plane-%dm", masters)
		}
		counts[name] = row
		note += fmt.Sprintf(" %s:%s", name, rowNote)
		if err != nil {
			return counts, note, err
		}
	}
	return counts, "in-process time on the zero-cost cluster;" + note, nil
}

// controlPlaneRow runs one row's steps on a cluster of the given masters: a
// lone master's row counts chunk-server messages of a create, open and
// delete; a replicated one's counts messages and allocations of a create and
// an open.
func controlPlaneRow(masters int) (counts map[string]float64, note string, err error) {
	opts := wideOptions()
	opts.Masters = masters
	s, err := open(opts, master.CreateVDiskReq{Name: "warm", Size: 12 * util.ChunkSize})
	if err != nil {
		return nil, "", err
	}
	defer s.Close()
	cl := s.cl
	received := func() int64 {
		n := s.c.Metrics().Counter(master.MetricMasterBatches).Load()
		if h := s.c.Metrics().ValueHist(transport.MetricConnInflight); h != nil {
			n += h.Count()
		}
		return n
	}
	var mem runtime.MemStats
	mallocs := func() uint64 {
		runtime.ReadMemStats(&mem)
		return mem.Mallocs
	}
	counts = make(map[string]float64)
	step := func(name string, run func() error) error {
		n0, a0 := received(), mallocs()
		var err error
		took := timed(func() { err = run() })
		a1, n1 := mallocs(), received()
		if err != nil {
			return fmt.Errorf("control-plane %s: %w", name, err)
		}
		counts[name+"_msgs"] = float64(n1 - n0)
		if masters > 1 {
			counts[name+"_allocs"] = float64(a1 - a0)
		}
		note += fmt.Sprintf(" %s %.1f ms", name, ms(took))
		return nil
	}
	err = step("create", func() error {
		_, err := cl.CreateVDisk(master.CreateVDiskReq{Name: "wide", Size: footprintChunks * util.ChunkSize})
		return err
	})
	if err == nil {
		err = step("open", func() error {
			vd, err := cl.Open("wide")
			if err == nil {
				err = vd.Close()
			}
			return err
		})
	}
	if err == nil && masters == 1 {
		err = step("delete", func() error { return cl.DeleteVDisk("wide") })
	}
	return counts, note, err
}
