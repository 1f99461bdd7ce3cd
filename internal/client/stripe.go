package client

import (
	"ursa/internal/master"
	"ursa/internal/util"
)

// fragment is one piece of a block request routed to one chunk.
type fragment struct {
	chunk    int   // chunk index within the vdisk
	chunkOff int64 // byte offset inside the chunk
	bufLo    int   // range within the caller's buffer
	bufHi    int
}

// mapRange splits a vdisk byte range into per-chunk fragments under the
// vdisk's striping geometry (§3.4): groups of StripeGroup consecutive
// chunks are interleaved at StripeUnit granularity, so large requests fan
// out over the group's disks. Contiguous pieces that land adjacently in the
// same chunk are merged, so unstriped vdisks see one fragment per chunk. The
// fragments are appended to frags, which callers back with a small array of
// their own so the common few-fragment request maps without allocating.
func mapRange(frags []fragment, meta *master.VDiskMeta, off int64, n int) []fragment {
	g := int64(meta.StripeGroup)
	if g <= 0 {
		g = 1
	}
	u := meta.StripeUnit
	if u <= 0 {
		u = util.ChunkSize
	}
	groupSpan := g * util.ChunkSize

	pos := off
	end := off + int64(n)
	for pos < end {
		groupIdx := pos / groupSpan
		wb := pos % groupSpan // byte offset within the group
		block := wb / u
		lane := block % g
		chunkIdx := int(groupIdx*g + lane)
		chunkOff := (block/g)*u + wb%u

		// The piece runs to the end of this stripe unit at most.
		pieceEnd := pos + (u - wb%u)
		if pieceEnd > end {
			pieceEnd = end
		}
		lo := int(pos - off)
		hi := int(pieceEnd - off)

		// Merge with the previous fragment when chunk-contiguous.
		if k := len(frags) - 1; k >= 0 &&
			frags[k].chunk == chunkIdx &&
			frags[k].chunkOff+int64(frags[k].bufHi-frags[k].bufLo) == chunkOff &&
			frags[k].bufHi == lo {
			frags[k].bufHi = hi
		} else {
			frags = append(frags, fragment{
				chunk:    chunkIdx,
				chunkOff: chunkOff,
				bufLo:    lo,
				bufHi:    hi,
			})
		}
		pos = pieceEnd
	}
	return frags
}
