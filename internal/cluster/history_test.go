package cluster

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"time"

	"ursa/internal/client"
	"ursa/internal/core"
)

// history is a client.Device that hashes what a chaos run's client saw: each
// op's kind, offset, outcome and completion time on the cluster's clock, in
// completion order. In a bubble every input is fixed by the seed, so two
// runs that hash alike took the same course — make replay-smoke counts how
// often they do.
type history struct {
	client.Device
	c     *core.Cluster
	start time.Time
	h     hash.Hash
}

func newHistory(c *core.Cluster, vd client.Device) *history {
	return &history{Device: vd, c: c, start: c.Clock().Now(), h: sha256.New()}
}

func (d *history) ReadAt(p []byte, off int64) error {
	err := d.Device.ReadAt(p, off)
	d.record('r', off, err)
	return err
}

func (d *history) WriteAt(p []byte, off int64) error {
	err := d.Device.WriteAt(p, off)
	d.record('w', off, err)
	return err
}

func (d *history) record(kind byte, off int64, err error) {
	fmt.Fprintf(d.h, "%c %d %t %d\n", kind, off, err != nil, d.c.Clock().Now().Sub(d.start))
}

// sum ends the hash with the primary master's log: its sequence number and
// the state its entries built (the entries themselves are the master's).
func (d *history) sum() []byte {
	p := d.c.PrimaryMaster()
	state, _ := json.Marshal(p.Snapshot())
	fmt.Fprintf(d.h, "log %d %s\n", p.LogSeq(), state)
	return d.h.Sum(nil)
}
