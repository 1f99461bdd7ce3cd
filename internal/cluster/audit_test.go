package cluster

import (
	"fmt"
	"testing"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/bufpool"
	"ursa/internal/core"
	"ursa/internal/proto"
	"ursa/internal/util"
)

// auditReplicas checks that the replicas of mirrored vdisk id agree once the
// faults are healed: every current replica of every chunk, as the primary
// master records it, answers one version in the chunk's view, and the same
// bytes over the chunk's first span bytes. A chunk still being repaired has
// until the drain's deadline to settle.
func auditReplicas(t *testing.T, c *core.Cluster, id uint32, span int64) {
	t.Helper()
	why := ""
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if why = disagreement(c, id, span); why == "" {
			return
		}
		if time.Now().After(deadline) {
			break
		}
	}
	t.Errorf("vdisk %d: %s", id, why)
}

// disagreement returns how the replicas of vdisk id disagree, or "" when
// they do not. Bytes are compared by checksum, 1 MiB at a time, read
// through each server's OpRead at the version it answered.
func disagreement(c *core.Cluster, id uint32, span int64) string {
	p := c.PrimaryMaster()
	if p == nil {
		return "no primary master"
	}
	meta, ok := p.Snapshot().VDisks[id]
	if !ok {
		return "not on the primary master"
	}
	for idx, cm := range meta.Chunks {
		chunk := blockstore.MakeChunkID(id, uint32(idx))
		first := ""
		for _, r := range cm.Replicas {
			srv := c.Server(r.Addr)
			got, err := proto.DecodeResults(srv.Handle(&proto.Message{Op: proto.OpGetVersion, Payload: proto.EncodeChunkIDs(chunk)}).Payload)
			if err != nil || len(got) != 1 || got[0].Status != proto.StatusOK || got[0].View != cm.View {
				return fmt.Sprintf("chunk %d: %s answers %+v (%v), want OK in view %d", idx, r.Addr, got, err, cm.View)
			}
			state := fmt.Sprintf("version %d, checksums", got[0].Version)
			for off := int64(0); off < span; off += util.MiB {
				resp := srv.Handle(&proto.Message{Op: proto.OpRead, Chunk: chunk, Off: off,
					Length: uint32(min(util.MiB, span-off)), View: cm.View, Version: got[0].Version})
				if resp.Status != proto.StatusOK {
					return fmt.Sprintf("chunk %d: %s read at %d: %s", idx, r.Addr, off, resp.Status)
				}
				state += fmt.Sprintf(" %08x", util.Checksum(resp.Payload))
				bufpool.Put(resp.Payload)
			}
			if first == "" {
				first = state
			} else if state != first {
				return fmt.Sprintf("chunk %d: %s at %s, %s at %s", idx, cm.Replicas[0].Addr, first, r.Addr, state)
			}
		}
	}
	return ""
}
