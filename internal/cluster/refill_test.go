package cluster

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/clock"
	"ursa/internal/master"
	"ursa/internal/proto"
	"ursa/internal/util"
)

// TestReconcileRefillsLostReplica: one mirror replica's slot is dropped under
// its live server, with no client I/O to notice (the one write is large
// enough to bypass the journals, so no replay of it can fail and report). One
// reconcile pass files the repair the way a failure report is filed; the view
// change it starts, which the pass does not wait out, replaces the replica,
// and the chunk ends with three replicas at one version, in a higher view,
// with equal bytes.
func TestReconcileRefillsLostReplica(t *testing.T) {
	clock.Test(t, func() {
		c, cleanup := testCluster(t)
		defer cleanup()
		vd, closeVD := openVDisk(t, c, "refill", master.CreateVDiskReq{Name: "refill", Size: util.ChunkSize})
		defer closeVD()
		if err := vd.WriteAt(bytes.Repeat([]byte{0x6d}, util.MiB), 0); err != nil {
			t.Fatal(err)
		}
		p := c.PrimaryMaster()
		before := p.Snapshot().VDisks[vd.ID()].Chunks[0]
		lost := before.Replicas[1].Addr
		drop := &proto.Message{Op: proto.OpDeleteChunk, Epoch: p.Epoch(), Payload: proto.EncodeChunkIDs(blockstore.MakeChunkID(vd.ID(), 0))}
		if r := c.Server(lost).Handle(drop); r.Status != proto.StatusOK {
			t.Fatalf("drop the slot on %s: %s", lost, r.Status)
		}

		if _, err := p.Reconcile(); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			cm := p.Snapshot().VDisks[vd.ID()].Chunks[0]
			if cm.View > before.View && len(cm.Replicas) == 3 &&
				!slices.ContainsFunc(cm.Replicas, func(r master.ReplicaInfo) bool { return r.Addr == lost }) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("chunk after the pass: %+v, want three replicas without %s in a view above %d", cm, lost, before.View)
			}
		}
		auditReplicas(t, c, vd.ID(), util.ChunkSize)
	})
}
