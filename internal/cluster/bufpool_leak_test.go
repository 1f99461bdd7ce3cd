package cluster

import (
	"testing"
	"time"

	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/core"
	"ursa/internal/master"
	"ursa/internal/opctx"
	"ursa/internal/util"
)

// TestChaosPoolLeakFree runs the random-fault chaos harness — journal
// massacre, dead disks, server crash/restart — and then requires the buffer
// pool's and the request contexts' in-use counts to balance back to their
// starting values once the cluster shuts down. Every leased payload buffer
// must be returned, and every op released by its creator and its retainers,
// exactly once on every path the chaos run exercises: success,
// timeout-and-retry, dead-journal re-route, crash-severed connections,
// stragglers of a degraded commit, repair reads. The same goes for
// goroutines: Close joins what the cluster started — serve loops, replayers,
// dispatchers, the client's reporter — on the fault paths too (clock.Test).
func TestChaosPoolLeakFree(t *testing.T) {
	start, startOps := bufpool.InUse(), opctx.InUse()
	clock.Test(t, func() {
		// Closed by hand, not by the deferred close alone: the checks below
		// need the cluster fully closed (all in-flight buffers drained).
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

		// The journals' resident images are leases too: whatever backlog the
		// massacre and the crashes left behind, Close hands every slab back.
		var fromMemory int64
		for _, m := range c.Machines {
			for _, js := range m.JournalSets() {
				st := js.Stats()
				fromMemory += st.ReplayedFromMemory
				if st.ResidentBytes != 0 {
					t.Errorf("closed journal set still holds %d resident bytes (%d records pending)", st.ResidentBytes, st.Pending)
				}
			}
		}
		if fromMemory == 0 {
			t.Error("no replay drained the resident image: the run did not exercise it")
		}
	})

	deadline := time.Now().Add(15 * time.Second)
	for bufpool.InUse() != start || opctx.InUse() > startOps {
		if time.Now().After(deadline) {
			t.Fatalf("leak after chaos run: buffers in use %d, started at %d (leases=%d returns=%d); ops in use %d, started at %d",
				bufpool.InUse(), start, bufpool.Leases(), bufpool.Returns(), opctx.InUse(), startOps)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
