package chunkserver

import (
	"bytes"
	"testing"
	"time"

	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/proto"
	"ursa/internal/simdisk"
	"ursa/internal/util"
)

// busyDisk always looks busy, which holds the journal replayer off (its idle
// gate): journaled records stay in the journal for the whole test.
type busyDisk struct{ simdisk.Disk }

func (d busyDisk) QueueDepth() int { return d.Disk.QueueDepth() + 1 }

// TestPrimaryWriteOnBackupServerSupersedesJournal makes a backup server the
// chunk's (temporary) primary, as a view change does when no SSD replica
// survives. Its primary-path write must go through the journal set like
// every other direct write: written to the bare store, it would sit under
// the older journaled record of the same extent — reads would keep
// returning the journal's bytes, failing the checksum stamped for the new
// ones, and replay would later put the old bytes back on disk.
func TestPrimaryWriteOnBackupServerSupersedesJournal(t *testing.T) {
	e := newRebuildEnv(t)
	b := e.start("b", true, busyDisk{simdisk.NewSSD(fastSSD(), clock.Realtime)}, 50*time.Millisecond)
	mustCreate(t, b, CreateChunkReq{View: 1})
	older := bytes.Repeat([]byte{0xaa}, 4*util.KiB)
	newer := bytes.Repeat([]byte{0xbb}, 4*util.KiB)
	if st := apply(b, proto.OpReplicate, 0, 0, older); st != proto.StatusOK {
		t.Fatalf("journaled backup write: %s", st)
	}
	if n := b.jset.Pending(); n != 1 {
		t.Fatalf("journal holds %d records, want the one just appended", n)
	}
	if st := apply(b, proto.OpWritePrimary, 1, 0, newer); st != proto.StatusOK {
		t.Fatalf("primary-path write: %s", st)
	}
	r := b.Handle(&proto.Message{
		Op: proto.OpRead, Chunk: testChunk, Off: 0, Length: uint32(len(newer)), View: 1, Version: 2,
	})
	if r.Status != proto.StatusOK || !bytes.Equal(r.Payload, newer) {
		t.Fatalf("read after the primary-path write = %s %#x.., want the written %#x..", r.Status, r.Payload[:min(1, len(r.Payload))], newer[:1])
	}
	bufpool.Put(r.Payload)
}
