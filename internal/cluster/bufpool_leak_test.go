package cluster

import (
	"testing"
	"time"

	"ursa/internal/bufpool"
	"ursa/internal/core"
	"ursa/internal/master"
	"ursa/internal/util"
)

// TestChaosPoolLeakFree runs the random-fault chaos harness — journal
// massacre, dead disks, server crash/restart — and then requires the buffer
// pool's in-use count to balance back to its starting value once the
// cluster shuts down. Every leased payload buffer must be returned exactly
// once on every path the chaos run exercises: success, timeout-and-retry,
// dead-journal re-route, crash-severed connections, repair reads.
func TestChaosPoolLeakFree(t *testing.T) {
	start := bufpool.InUse()

	// Built without t.Cleanup: the leak check needs the cluster fully
	// closed (all in-flight buffers drained) while the test still runs.
	c, err := core.New(chaosClusterOptions(true))
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			c.Close()
		}
	}()
	cl := c.NewClient("leak-client")
	if _, err := cl.CreateVDisk(master.CreateVDiskReq{
		Name: "leak", Size: 2 * util.ChunkSize,
	}); err != nil {
		t.Fatal(err)
	}
	vd, err := cl.Open("leak")
	if err != nil {
		t.Fatal(err)
	}

	ops := 300
	rep, err := RunChaos(c, vd, ChaosOptions{
		Ops:        ops,
		Seed:       11,
		WriteFrac:  0.6,
		Schedule:   RandomSchedule(c, 11, ops),
		FinalSweep: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.EventsFired == 0 {
		t.Fatal("random schedule injected nothing")
	}

	vd.Close()
	cl.Close()
	c.Close()
	closed = true

	deadline := time.Now().Add(15 * time.Second)
	for bufpool.InUse() != start {
		if time.Now().After(deadline) {
			t.Fatalf("pool leak after chaos run: in-use %d, started at %d (leases=%d returns=%d)",
				bufpool.InUse(), start, bufpool.Leases(), bufpool.Returns())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
