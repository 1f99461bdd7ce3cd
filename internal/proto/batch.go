package proto

import (
	"encoding/binary"
	"fmt"
	"math"

	"ursa/internal/blockstore"
)

// The three per-chunk control commands — OpCreateChunk, OpDeleteChunk and
// OpGetVersion — carry a list of chunk entries in the payload and are
// answered with one ChunkResult per entry run, so a vdisk's birth, death and
// version probe cost each server one message whatever the number of its
// chunks. The header's Chunk field is not used; a command for a single chunk
// is a list of one. The server runs the entries in list order on the one
// goroutine that handles the message. An OpGetVersion with no list at all is
// an inventory: it is answered for every slot the server's store holds.
//
// OpDeleteChunk and OpGetVersion list ChunkEntry pairs (EncodeChunks);
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
// Version and View are the replica's, filled in for a probe, which also
// names the chunk and says whether its cold extent table is still to drain.
type ChunkResult struct {
	Status  Status
	Version uint64
	View    uint64
	Chunk   blockstore.ChunkID
	Cold    bool
}

const chunkResultSize = 1 + 8 + 8 + 8 + 1

// ChunkEntry is one entry of an OpDeleteChunk or OpGetVersion list: a chunk
// and the highest view at which a delete may drop its slot (a probe ignores
// it).
type ChunkEntry struct {
	Chunk blockstore.ChunkID
	UpTo  uint64
}

// AnyView guards a delete that drops a slot at whatever view it holds.
const AnyView = math.MaxUint64

const chunkEntrySize = 8 + 8

// EncodeChunks is the payload of an OpDeleteChunk or OpGetVersion.
func EncodeChunks(entries ...ChunkEntry) []byte {
	buf := make([]byte, 0, chunkEntrySize*len(entries))
	for _, e := range entries {
		buf = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(buf, uint64(e.Chunk)), e.UpTo)
	}
	return buf
}

// EncodeChunkIDs is EncodeChunks for ids, each at AnyView.
func EncodeChunkIDs(ids ...blockstore.ChunkID) []byte {
	entries := make([]ChunkEntry, len(ids))
	for i, id := range ids {
		entries[i] = ChunkEntry{Chunk: id, UpTo: AnyView}
	}
	return EncodeChunks(entries...)
}

// DecodeChunks parses an EncodeChunks payload; an empty or oversized list is
// malformed.
func DecodeChunks(payload []byte) ([]ChunkEntry, error) {
	n := len(payload) / chunkEntrySize
	if n == 0 || len(payload)%chunkEntrySize != 0 || n > MaxBatch {
		return nil, fmt.Errorf("proto: chunk list of %d bytes", len(payload))
	}
	entries := make([]ChunkEntry, n)
	for i := range entries {
		b := payload[chunkEntrySize*i:]
		entries[i] = ChunkEntry{blockstore.ChunkID(binary.LittleEndian.Uint64(b)), binary.LittleEndian.Uint64(b[8:])}
	}
	return entries, nil
}

// ReplyBatch answers the batched command m with the results of the entries
// that were run, in order. The header repeats the last result, so the sender
// of a single entry reads the header alone, and the sender of a create —
// which stops at its first failure — sees there whether it ran to the end;
// an inventory of an empty store is an OK with no results.
func (m *Message) ReplyBatch(results []ChunkResult) *Message {
	last := ChunkResult{Status: StatusOK}
	if len(results) > 0 {
		last = results[len(results)-1]
	}
	r := m.Reply(last.Status)
	r.Version, r.View = last.Version, last.View
	r.Payload = make([]byte, chunkResultSize*len(results))
	for i, res := range results {
		b := r.Payload[chunkResultSize*i:]
		b[0] = byte(res.Status)
		binary.LittleEndian.PutUint64(b[1:], res.Version)
		binary.LittleEndian.PutUint64(b[9:], res.View)
		binary.LittleEndian.PutUint64(b[17:], uint64(res.Chunk))
		if res.Cold {
			b[25] = 1
		}
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
			Chunk:   blockstore.ChunkID(binary.LittleEndian.Uint64(b[17:])),
			Cold:    b[25] != 0,
		}
	}
	return results, nil
}
