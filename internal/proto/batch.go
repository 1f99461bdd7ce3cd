package proto

import (
	"encoding/binary"
	"fmt"

	"ursa/internal/blockstore"
)

// The three per-chunk control commands — OpCreateChunk, OpDeleteChunk and
// OpGetVersion — carry a list of chunk entries in the payload and are
// answered with one ChunkResult per entry run, so a vdisk's birth, death and
// version probe cost each server one message whatever the number of its
// chunks. The header's Chunk field is not used; a command for a single chunk
// is a list of one. The server runs the entries in list order on the one
// goroutine that handles the message.
//
// OpDeleteChunk and OpGetVersion list bare chunk IDs (EncodeChunkIDs);
// OpCreateChunk lists chunkserver.ChunkCreate entries as a JSON array.

const (
	// MaxBatch is the most entries one message may carry and MaxBatchBytes
	// the most payload a sender packs into one: a sender with more for a
	// server sends the next message when the previous is answered, which
	// keeps the server's entries in order. The caps bound what one handler
	// invocation holds a connection worker for and what one frame weighs
	// (a cloned chunk's entry carries its cold extent table, several KiB);
	// they are far above any vdisk's share of one server short of hundreds of
	// GiB, so the common command is still one message per server.
	MaxBatch      = 512
	MaxBatchBytes = 1 << 20
)

// ChunkResult is a chunk server's answer for one entry of a batched command.
// Version and View are the replica's, filled in for a probe.
type ChunkResult struct {
	Status  Status
	Version uint64
	View    uint64
}

const chunkResultSize = 1 + 8 + 8

// EncodeChunkIDs is the payload of an OpDeleteChunk or OpGetVersion for ids.
func EncodeChunkIDs(ids ...blockstore.ChunkID) []byte {
	buf := make([]byte, 8*len(ids))
	for i, id := range ids {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(id))
	}
	return buf
}

// DecodeChunkIDs parses an EncodeChunkIDs payload; an empty or oversized
// list is malformed.
func DecodeChunkIDs(payload []byte) ([]blockstore.ChunkID, error) {
	n := len(payload) / 8
	if n == 0 || len(payload)%8 != 0 || n > MaxBatch {
		return nil, fmt.Errorf("proto: chunk list of %d bytes", len(payload))
	}
	ids := make([]blockstore.ChunkID, n)
	for i := range ids {
		ids[i] = blockstore.ChunkID(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return ids, nil
}

// ReplyBatch answers the batched command m with the results of the entries
// that were run, in order (at least one). The header repeats the last result,
// so the sender of a single entry reads the header alone, and the sender of a
// create — which stops at its first failure — sees there whether it ran to
// the end.
func (m *Message) ReplyBatch(results []ChunkResult) *Message {
	last := results[len(results)-1]
	r := m.Reply(last.Status)
	r.Version, r.View = last.Version, last.View
	r.Payload = make([]byte, chunkResultSize*len(results))
	for i, res := range results {
		b := r.Payload[chunkResultSize*i:]
		b[0] = byte(res.Status)
		binary.LittleEndian.PutUint64(b[1:], res.Version)
		binary.LittleEndian.PutUint64(b[9:], res.View)
	}
	return r
}

// DecodeResults parses a ReplyBatch payload. A message refused as a whole
// (a fenced epoch, a malformed list) has none.
func DecodeResults(payload []byte) ([]ChunkResult, error) {
	if len(payload)%chunkResultSize != 0 {
		return nil, fmt.Errorf("proto: result list of %d bytes", len(payload))
	}
	results := make([]ChunkResult, len(payload)/chunkResultSize)
	for i := range results {
		b := payload[chunkResultSize*i:]
		results[i] = ChunkResult{
			Status:  Status(b[0]),
			Version: binary.LittleEndian.Uint64(b[1:]),
			View:    binary.LittleEndian.Uint64(b[9:]),
		}
	}
	return results, nil
}
