package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ursa/internal/clock"
	"ursa/internal/core"
	"ursa/internal/master"
	"ursa/internal/proto"
	"ursa/internal/util"
)

// TestChaosVDiskLifecycle creates, opens, writes, closes and deletes vdisks
// in a loop while the random schedule kills journals and a disk, crashes and
// restarts a chunk server, partitions machines and kills and heals the
// primary master. Any step may fail; what must hold afterwards is that the
// control plane left nothing half-done:
//
//   - every master holds the same vdisks, none that a delete was acknowledged
//     for, and every replica of every vdisk they hold has its slot;
//   - no server holds a slot of a vdisk whose create failed: the create
//     cleaned up after itself;
//   - after the faults heal, one reconcile pass leaves no slot of a deleted
//     vdisk — one a delete could not reach, or a replacement a recovery made
//     while its vdisk was being deleted — and no slot outside its chunk's
//     replica list below the chunk's view, such as a replica a view change
//     evicted. How many the pass reaped is logged (master-slots-reaped).
//
// The master is killed at a moment its standbys have caught up: an entry a
// majority holds survives the kill whatever the standbys lag, but one still
// awaiting its majority fails its op, and this test's ops expect success.
func TestChaosVDiskLifecycle(t *testing.T) {
	clock.Test(t, func() {
		opts := chaosClusterOptions(true)
		opts.Masters = 3
		opts.MasterPrimacyTTL = 150 * time.Millisecond
		c, err := core.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cl := c.NewClient("lifecycle-client")

		const rounds = 48
		schedule := RandomSchedule(c, 23, rounds)
		caughtUp := func() bool {
			p := c.PrimaryMaster()
			for i, m := range c.Masters {
				if p == nil || (!c.Net.Down(c.MasterAddrs()[i]) && m.LogSeq() != p.LogSeq()) {
					return false
				}
			}
			return true
		}
		await := func(what string, cond func() bool) {
			t.Helper()
			for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("timed out waiting for %s", what)
				}
			}
		}

		created := map[uint32]string{} // vdisks a create was acknowledged for
		deleted := map[uint32]bool{}   // ... and a delete
		var createErrs, ioErrs, deleteErrs, fired int
		block := make([]byte, 4*util.KiB)
		for round := 0; round < rounds; round++ {
			for _, ev := range schedule {
				if ev.AtOp == round {
					if ev.Kind == ChaosKillMaster {
						await("the standbys to catch up before the kill", caughtUp)
					}
					fireChaos(c, ev)
					fired++
				}
			}
			name := fmt.Sprintf("life-%d", round)
			meta, err := cl.CreateVDisk(master.CreateVDiskReq{Name: name, Size: 2 * util.ChunkSize})
			if err != nil {
				createErrs++
				continue
			}
			created[meta.ID] = name
			if vd, err := cl.Open(name); err != nil {
				ioErrs++
			} else {
				util.NewRand(uint64(round)).Fill(block)
				got := make([]byte, len(block))
				for _, off := range []int64{0, util.ChunkSize + 8*util.KiB} {
					if err := vd.WriteAt(block, off); err != nil {
						ioErrs++
					} else if err := vd.ReadAt(got, off); err != nil {
						ioErrs++
					} else if !bytes.Equal(got, block) {
						t.Fatalf("%s: read at %d returned other bytes than just written", name, off)
					}
				}
				vd.Close()
			}
			if round%4 == 3 {
				continue // kept: the survivors the slot audit below looks at
			}
			if err := cl.DeleteVDisk(name); err != nil {
				deleteErrs++
			} else {
				deleted[meta.ID] = true
			}
		}
		t.Logf("%d rounds, %d events: %d creates acknowledged (%d failed), %d deletes acknowledged (%d failed), %d failed opens/reads/writes",
			rounds, fired, len(created), createErrs, len(deleted), deleteErrs, ioErrs)
		if fired != len(schedule) || len(created) < rounds/4 || len(deleted) < rounds/8 {
			t.Fatalf("the run exercised too little: %d/%d events, %d creates, %d deletes", fired, len(schedule), len(created), len(deleted))
		}

		HealAll(c)
		for _, ev := range schedule {
			if ev.Kind == ChaosCrashServer {
				c.RestartServer(ev.Server)
			}
		}
		await("a primary with every master caught up", caughtUp)

		known := c.PrimaryMaster().Snapshot()
		for i, m := range c.Masters {
			held := m.Snapshot().VDisks
			if len(held) != len(known.VDisks) {
				t.Errorf("master %d holds %d vdisks, the primary %d", i, len(held), len(known.VDisks))
			}
			for id := range held {
				if _, ok := known.VDisks[id]; !ok || deleted[id] {
					t.Errorf("master %d holds vdisk %d (%q): on the primary %v, delete acknowledged %v", i, id, created[id], ok, deleted[id])
				}
			}
		}
		if _, err := c.PrimaryMaster().Reconcile(); err != nil {
			t.Fatal(err)
		}
		slots := map[string]map[uint64]bool{} // by server address: the chunk IDs its store holds
		leftOfDeleted := 0
		for _, addr := range c.ServerAddrs() {
			slots[addr] = map[uint64]bool{}
			inventory, err := proto.DecodeResults(c.Server(addr).Handle(&proto.Message{Op: proto.OpGetVersion}).Payload)
			if err != nil || len(inventory) != len(c.Server(addr).ScrubChunks()) {
				t.Fatalf("%s: inventory of %d slots (%v), its store holds %d", addr, len(inventory), err, len(c.Server(addr).ScrubChunks()))
			}
			for _, r := range inventory {
				id := r.Chunk
				slots[addr][uint64(id)] = true
				meta, ok := known.VDisks[id.VDisk()]
				switch {
				case !ok && created[id.VDisk()] == "":
					t.Errorf("%s holds a slot of %v: a failed create left it behind", addr, id)
				case !ok:
					leftOfDeleted++
					t.Errorf("%s still holds a slot of %v (%q, deleted) after a reconcile pass", addr, id, created[id.VDisk()])
				case !listed(meta.Chunks[id.Index()], addr) && r.View < meta.Chunks[id.Index()].View:
					t.Errorf("%s still holds a slot of %v at view %d outside its replica list, below the chunk's view %d, after a reconcile pass",
						addr, id, r.View, meta.Chunks[id.Index()].View)
				}
			}
		}
		t.Logf("%d slots left of deleted vdisks; the pass reaped %d; %d view changes",
			leftOfDeleted, c.Metrics().Counter(master.MetricSlotsReaped).Load(), known.ViewChanges)
		for id, meta := range known.VDisks {
			for i, cm := range meta.Chunks {
				for _, r := range cm.Replicas {
					if !slots[r.Addr][uint64(id)<<32|uint64(i)] {
						t.Errorf("vdisk %d (%q) chunk %d: replica on %s has no slot", id, meta.Name, i, r.Addr)
					}
				}
			}
		}
		for id := range known.VDisks {
			auditReplicas(t, c, id, 12*util.KiB) // both writes: chunk 0 at 0, chunk 1 at 8 KiB
		}
	})
}

// listed reports whether cm names a replica on addr.
func listed(cm master.ChunkMeta, addr string) bool {
	for _, r := range cm.Replicas {
		if r.Addr == addr {
			return true
		}
	}
	return false
}
