package core

import (
	"bytes"
	"testing"
	"time"

	"ursa/internal/clock"
	"ursa/internal/util"
)

// TestWriteDeadlinePropagation pins the deadline decrement rule end to end:
// when a backup stops acking mid-replication, the primary's majority rule
// (§4.2.1) must fire relative to the CLIENT's deadline budget, not the
// server's configured ReplTimeout. The server window here is absurdly long
// (30 s); if any layer below the client derived an absolute timeout from
// it, the degraded write could not return within the client's ~300 ms
// budget.
func TestWriteDeadlinePropagation(t *testing.T) {
	clock.Test(t, func() {
		const ioBudget = 300 * time.Millisecond
		c, err := New(Options{
			Machines:       3,
			SSDsPerMachine: 1,
			HDDsPerMachine: 1,
			Mode:           Hybrid,
			Clock:          clock.Realtime,
			SSDModel:       fastSSDModel(),
			HDDModel:       fastHDDModel(),
			NetLatency:     5 * time.Microsecond,
			ReplTimeout:    30 * time.Second, // must NOT govern client-initiated ops
			CallTimeout:    10 * time.Second,
			IOTimeout:      ioBudget,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		cl := c.NewClient("dl-client")
		vd, cleanup := mustVDisk(t, cl, "dl", util.ChunkSize)
		defer cleanup()

		data := bytes.Repeat([]byte{0xab}, 64*util.KiB) // > Tc: goes via the primary
		// Warm the replication path so the partition below hits established
		// primary→backup connections rather than failing the dial outright.
		if err := vd.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}

		meta, err := cl.OpenMeta("dl")
		if err != nil {
			t.Fatal(err)
		}
		reps := meta.Chunks[0].Replicas
		if len(reps) < 3 {
			t.Fatalf("want 3 replicas, got %d", len(reps))
		}
		// Cut the primary off from one backup: its OpReplicate now vanishes on
		// the wire, so only the replication window ends the primary's wait.
		c.Net.Partition(reps[0].Addr, reps[1].Addr)

		start := time.Now()
		if err := vd.WriteAt(data, 0); err != nil {
			t.Fatalf("degraded write: %v", err)
		}
		elapsed := time.Since(start)
		// The majority (primary + remaining backup) must commit within the
		// client's budget — with generous scheduling slack, but nowhere near
		// the 30 s server window.
		if elapsed >= 2*time.Second {
			t.Fatalf("degraded write took %v; replication window did not derive from the client's %v budget",
				elapsed, ioBudget)
		}

		got := make([]byte, len(data))
		if err := vd.ReadAt(got, 0); err != nil {
			t.Fatalf("read after degraded commit: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("read back wrong data after degraded commit")
		}
	})
}
