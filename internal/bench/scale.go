package bench

import (
	"fmt"
	"sync"
	"time"

	"ursa/internal/client"
	"ursa/internal/master"
	"ursa/internal/util"
	"ursa/internal/workload"
)

// scalePoints are the machine counts of the paper's scalability sweep.
var scalePoints = []int{11, 22, 33, 44}

// buildScaleCluster assembles an n-machine hybrid cluster with one client
// and one vdisk per machine (clients and servers run everywhere to
// saturate the system, §6.3).
func buildScaleCluster(machines int) (*sut, error) {
	opts := benchOptions()
	opts.Machines = machines
	s, err := open(opts, master.CreateVDiskReq{Name: "scale-0", Size: util.GiB})
	for i := 1; err == nil && i < machines; i++ {
		cl := s.c.NewClient(fmt.Sprintf("scale-client-%d", i))
		_, err = s.add(cl, master.CreateVDiskReq{Name: fmt.Sprintf("scale-%d", i), Size: util.GiB})
	}
	if err != nil && s != nil {
		s.Close()
	}
	return s, err
}

// scaleRun drives all vdisks concurrently and returns aggregate results.
func scaleRun(vds []*client.VDisk, spec workload.Spec) (totalIOPS, totalMBps float64) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, vd := range vds {
		wg.Add(1)
		go func(i int, vd *client.VDisk) {
			defer wg.Done()
			s := spec
			s.Seed = spec.Seed + uint64(i)*131
			p := measure(vd, s)
			mu.Lock()
			totalIOPS += p.IOPS
			totalMBps += p.MBps
			mu.Unlock()
		}(i, vd)
	}
	wg.Wait()
	return totalIOPS, totalMBps
}

// Fig13a regenerates aggregate IOPS scaling from 11 to 44 machines.
func Fig13a(cfg Config) Table {
	return scaleSweep(cfg, "Aggregate IOPS vs machines (BS=4KB, QD=1/client)",
		func(vds []*client.VDisk, seed uint64) (float64, string) {
			iops, _ := scaleRun(vds, workload.Spec{
				// Light per-machine load: the sweep demonstrates that added
				// machines add capacity; each client must stay far from the
				// simulation host's own ceiling or the curve measures the
				// host, not the system.
				Pattern: workload.Mixed, ReadFraction: 0.7,
				BlockSize: 4 * util.KiB, QueueDepth: 1, Ops: 100000,
				WorkingSet: 512 * util.MiB, Seed: seed, MaxTime: scaleTime(cfg),
			})
			return iops, util.FormatCount(iops)
		})
}

// Fig13b regenerates aggregate throughput scaling.
func Fig13b(cfg Config) Table {
	return scaleSweep(cfg, "Aggregate throughput vs machines (BS=256KB, QD=1)",
		func(vds []*client.VDisk, seed uint64) (float64, string) {
			_, mbps := scaleRun(vds, workload.Spec{
				Pattern: workload.SeqRead, BlockSize: 256 * util.KiB, QueueDepth: 1,
				Ops: 20000, Seed: seed, MaxTime: scaleTime(cfg),
			})
			return mbps, fmt.Sprintf("%.1f GB/s", mbps/1000)
		})
}

// scaleTime bounds one point of the sweep: forty-four clients at once are
// what the simulation host can carry for so long.
func scaleTime(cfg Config) time.Duration {
	return time.Duration(cfg.pick(5000, 1500)) * time.Millisecond
}

func scaleSweep(cfg Config, title string,
	run func(vds []*client.VDisk, seed uint64) (float64, string)) Table {

	t := Table{Title: title, Header: []string{"machines", "aggregate", "per-machine"}}
	points := scalePoints
	if cfg.Quick {
		points = []int{11, 22}
	}
	var first float64
	var firstMachines int
	for _, n := range points {
		s, err := buildScaleCluster(n)
		if err != nil {
			t.failed(fmt.Sprintf("%d machines", n), err)
			continue
		}
		total, rendered := run(s.vds, cfg.Seed+uint64(n))
		s.Close()
		if first == 0 {
			first, firstMachines = total, n
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), rendered,
			util.FormatCount(total / float64(n)),
		})
	}
	if first > 0 && len(t.Rows) > 1 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"linear scaling check: per-machine rate at %d machines is the baseline",
			firstMachines))
	}
	return t
}

// Fig13c regenerates the striping experiment (§6.3): parallel throughput
// of one dedicated client vs stripe group size {none, 2, 4, 8} with 1 MB
// blocks at QD16.
func Fig13c(cfg Config) Table {
	t := Table{
		Title:  "Striping: parallel throughput vs stripe group (BS=1MB, QD=16)",
		Header: []string{"stripe-group", "read MB/s", "write MB/s"},
	}
	opts := benchOptions()
	opts.Machines = 8
	for _, g := range []int{1, 2, 4, 8} {
		label, req := "non-striping", master.CreateVDiskReq{Size: 2 * util.GiB}
		if g > 1 {
			label, req.StripeGroup, req.StripeUnit = fmt.Sprintf("%d", g), g, 128*util.KiB
		}
		t.row("stripe group "+label, opts, req, func(s *sut) []string {
			rres := measure(s.vd, workload.Spec{
				Pattern: workload.SeqRead, BlockSize: util.MiB, QueueDepth: 16,
				Ops: 20000, Seed: cfg.Seed + 61, MaxTime: cfg.cellTime() / 2,
			})
			wres := measure(s.vd, workload.Spec{
				Pattern: workload.SeqWrite, BlockSize: util.MiB, QueueDepth: 16,
				Ops: 20000, Seed: cfg.Seed + 62, MaxTime: cfg.cellTime() / 2,
			})
			return []string{label, f1(rres.MBps), f1(wres.MBps)}
		})
	}
	t.Notes = append(t.Notes,
		"writes trail reads: replicas ×3 and 1MB bypasses journals to HDDs (§6.3)")
	return t
}
