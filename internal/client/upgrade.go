package client

import (
	"encoding/json"
	"fmt"
	"time"

	"ursa/internal/master"
)

// coreState is the serialized client-core status of §5.2: everything the
// "new core process" needs to resume service exactly where the old one
// stopped. Real URSA writes it to a temporary file between the core's exit
// and the shell's exec of the new core; we keep the same save/exit/restore
// cycle in-process.
type coreState struct {
	Meta      master.VDiskMeta   `json:"meta"`
	Next      []uint64           `json:"next"`
	Committed []uint64           `json:"committed"`
	Primary   []int              `json:"primary"`
	ChunkMeta []master.ChunkMeta `json:"chunkMeta"`
	LeaseEnd  time.Time          `json:"leaseEnd"`
	// Orphans are every chunk's orphans, which the new core's next writer of
	// the chunk drives (takeVersion): dropped, one would leave a version no
	// later write fills.
	Orphans [][]orphan `json:"orphans"`
}

// UpgradeVDisk performs the client online upgrade of §5.2: the core (i)
// stops receiving new I/O and completes pending requests — our caller
// guarantees quiescence by not issuing I/O during the call, matching the
// VMM-facing pause — (ii) saves its status, and (iii) "exits"; the shell
// then starts the new core, which restores the status and resumes service
// over the same connections. The returned VDisk replaces vd, whose lease
// and identity it inherits; vd itself must not be used afterwards.
func (c *Client) UpgradeVDisk(vd *VDisk) (*VDisk, error) {
	// Step (i)+(ii): freeze the old core and serialize its status.
	state, err := saveCore(vd)
	if err != nil {
		return nil, err
	}
	// Step (iii): old core exits — stop its renewer without releasing the
	// lease (the new core inherits it).
	vd.closed.Store(true)
	if vd.renewStop != nil {
		close(vd.renewStop)
		<-vd.renewDone
	}
	// Shell starts the new core from the saved status.
	return restoreCore(c, state)
}

// saveCore serializes vd's protocol state ("saves its status into a
// temporary file", §5.2).
func saveCore(vd *VDisk) ([]byte, error) {
	st := coreState{
		Meta:      vd.meta,
		Next:      make([]uint64, len(vd.chunks)),
		Committed: make([]uint64, len(vd.chunks)),
		Primary:   make([]int, len(vd.chunks)),
		ChunkMeta: make([]master.ChunkMeta, len(vd.chunks)),
		Orphans:   make([][]orphan, len(vd.chunks)),
		LeaseEnd:  *vd.leaseEnd.Load(),
	}
	for i, ch := range vd.chunks {
		ch.mu.Lock()
		st.Next[i] = ch.next
		st.Committed[i] = ch.committed
		st.Primary[i] = ch.primary
		st.ChunkMeta[i] = ch.meta
		st.Orphans[i] = ch.orphans
		ch.mu.Unlock()
	}
	return json.Marshal(st)
}

// restoreCore builds the new core from saved status and resumes service.
func restoreCore(c *Client, data []byte) (*VDisk, error) {
	var st coreState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("client: corrupt core state: %w", err)
	}
	vd := newVDisk(c, st.Meta, st.LeaseEnd)
	for i, ch := range vd.chunks {
		ch.next = st.Next[i]
		ch.committed = st.Committed[i]
		ch.primary = st.Primary[i]
		ch.meta = st.ChunkMeta[i]
		ch.orphans = st.Orphans[i]
	}
	vd.startRenewer()
	return vd, nil
}
