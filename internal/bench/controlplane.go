package bench

import (
	"fmt"

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
// hundreds. The note is each phase's wall time,
// which on this cluster is CPU time: for the log, not for the gate.
func controlPlaneCounts() (counts map[string]float64, note string, err error) {
	s, err := openWide()
	if err != nil {
		return nil, "", err
	}
	defer s.Close()
	cl := s.cl
	received := func() int64 {
		if h := s.c.Metrics().ValueHist(transport.MetricConnInflight); h != nil {
			return h.Count()
		}
		return 0
	}
	counts = make(map[string]float64)
	step := func(name string, run func() error) error {
		n0 := received()
		var err error
		took := timed(func() { err = run() })
		if err != nil {
			return fmt.Errorf("control-plane %s: %w", name, err)
		}
		counts[name+"_msgs"] = float64(received() - n0)
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
	if err == nil {
		err = step("delete", func() error { return cl.DeleteVDisk("wide") })
	}
	return counts, "in-process time on the zero-cost cluster:" + note, err
}
