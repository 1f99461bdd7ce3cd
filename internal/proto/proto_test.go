package proto

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"ursa/internal/blockstore"
)

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{
		ID:      42,
		Op:      OpWrite,
		Status:  StatusOK,
		Chunk:   blockstore.MakeChunkID(3, 7),
		Off:     1 << 20,
		Length:  4096,
		View:    5,
		Version: 99,
		OpID:    77,
		Budget:  250 * time.Millisecond,
		Flags:   FlagXorApply | FlagVersionBump,
		Seg:     5,
		Epoch:   3,
		Payload: []byte("hello block storage"),
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != m.WireSize() {
		t.Errorf("encoded %d bytes, WireSize %d", buf.Len(), m.WireSize())
	}
	var got Message
	if err := got.Decode(&buf); err != nil {
		t.Fatal(err)
	}
	if got.ID != m.ID || got.Op != m.Op || got.Status != m.Status ||
		got.Chunk != m.Chunk || got.Off != m.Off || got.Length != m.Length ||
		got.View != m.View || got.Version != m.Version ||
		got.OpID != m.OpID || got.Budget != m.Budget ||
		got.Flags != m.Flags || got.Seg != m.Seg || got.Epoch != m.Epoch ||
		!bytes.Equal(got.Payload, m.Payload) {
		t.Errorf("round trip mismatch: %+v != %+v", got, m)
	}
}

func TestMessageEmptyPayload(t *testing.T) {
	m := &Message{ID: 1, Op: OpGetVersion}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var got Message
	if err := got.Decode(&buf); err != nil {
		t.Fatal(err)
	}
	if got.Payload != nil {
		t.Errorf("empty payload decoded as %v", got.Payload)
	}
}

func TestMessagePropertyRoundTrip(t *testing.T) {
	f := func(id uint64, op, status uint8, chunk uint64, off int64,
		length uint32, view, version, opID uint64, budget int64,
		flags uint8, seg uint16, epoch uint64, payload []byte) bool {
		if len(payload) > 1024 {
			payload = payload[:1024]
		}
		m := &Message{
			ID: id, Op: Op(op), Status: Status(status),
			Chunk: blockstore.ChunkID(chunk), Off: off, Length: length,
			View: view, Version: version,
			OpID: opID, Budget: time.Duration(budget),
			Flags: flags, Seg: seg, Epoch: epoch, Payload: payload,
		}
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			return false
		}
		var got Message
		if err := got.Decode(&buf); err != nil {
			return false
		}
		return got.ID == m.ID && got.Op == m.Op && got.Status == m.Status &&
			got.Chunk == m.Chunk && got.Off == m.Off &&
			got.Length == m.Length && got.View == m.View &&
			got.Version == m.Version && got.OpID == m.OpID &&
			got.Budget == m.Budget && got.Flags == m.Flags &&
			got.Seg == m.Seg && got.Epoch == m.Epoch &&
			bytes.Equal(got.Payload, m.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsHugePayload(t *testing.T) {
	m := &Message{ID: 1, Op: OpRead}
	var hdr [HeaderSize]byte
	m.EncodeHeader(hdr[:])
	// Corrupt the payload length field beyond the limit.
	hdr[48], hdr[49], hdr[50], hdr[51] = 0xff, 0xff, 0xff, 0x7f
	var got Message
	if _, err := got.DecodeHeader(hdr[:]); err == nil {
		t.Error("oversized payload length accepted")
	}
}

func TestReplyEchoesCorrelation(t *testing.T) {
	m := &Message{ID: 9, Op: OpWrite, Chunk: 5, View: 2, Version: 3, OpID: 17, Epoch: 4}
	r := m.Reply(StatusStaleView)
	if r.ID != 9 || r.Op != OpWrite || r.Status != StatusStaleView ||
		r.Chunk != 5 || r.View != 2 || r.Version != 3 || r.OpID != 17 ||
		r.Epoch != 4 {
		t.Errorf("Reply = %+v", r)
	}
}

func TestStatusStrings(t *testing.T) {
	for s := StatusOK; s <= StatusNotPrimary; s++ {
		if s.String() == "" {
			t.Errorf("Status %d has empty string", s)
		}
	}
	if StatusOK.String() != "OK" || Status(200).String() != "status(200)" {
		t.Error("status strings wrong")
	}
}

func TestBatchCodecs(t *testing.T) {
	entries := []ChunkEntry{{blockstore.MakeChunkID(3, 0), 4}, {blockstore.MakeChunkID(3, 7), AnyView}, {blockstore.MakeChunkID(1<<31, 1<<31), 0}}
	got, err := DecodeChunks(EncodeChunks(entries...))
	if err != nil || len(got) != len(entries) {
		t.Fatalf("chunk list round trip: %v, %v", got, err)
	}
	for i := range entries {
		if got[i] != entries[i] {
			t.Errorf("entry %d = %v, want %v", i, got[i], entries[i])
		}
	}
	if got, err := DecodeChunks(EncodeChunkIDs(entries[0].Chunk)); err != nil || got[0] != (ChunkEntry{entries[0].Chunk, AnyView}) {
		t.Errorf("a bare chunk ID decoded as %v, %v; want it at any view", got, err)
	}
	for _, bad := range [][]byte{nil, make([]byte, 12), make([]byte, 16*(MaxBatch+1))} {
		if _, err := DecodeChunks(bad); err == nil {
			t.Errorf("a %d-byte chunk list decoded", len(bad))
		}
	}

	req := &Message{ID: 9, Op: OpGetVersion, OpID: 4}
	want := []ChunkResult{{StatusOK, 12, 3, entries[0].Chunk, true}, {StatusNotFound, 0, 0, 0, false}, {StatusOK, 1 << 40, 1 << 33, entries[2].Chunk, false}}
	resp := req.ReplyBatch(want)
	if resp.ID != 9 || resp.OpID != 4 || resp.Status != StatusOK || resp.Version != 1<<40 || resp.View != 1<<33 {
		t.Errorf("reply header %+v does not repeat the last result", resp)
	}
	res, err := DecodeResults(resp.Payload)
	if err != nil || len(res) != len(want) {
		t.Fatalf("results round trip: %v, %v", res, err)
	}
	for i := range want {
		if res[i] != want[i] {
			t.Errorf("result %d = %+v, want %+v", i, res[i], want[i])
		}
	}
	if res, err := DecodeResults(nil); err != nil || len(res) != 0 {
		t.Errorf("a refused message's empty payload: %v, %v", res, err)
	}
	if resp := req.ReplyBatch(nil); resp.Status != StatusOK || len(resp.Payload) != 0 {
		t.Errorf("an empty inventory answered %s with %d payload bytes", resp.Status, len(resp.Payload))
	}
	if _, err := DecodeResults(make([]byte, 18)); err == nil {
		t.Error("an 18-byte result list decoded")
	}
}
