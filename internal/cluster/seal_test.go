package cluster

import (
	"bytes"
	"slices"
	"sync"
	"testing"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/client"
	"ursa/internal/clock"
	"ursa/internal/master"
	"ursa/internal/proto"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// TestWriteHeldPastTheProbeIsRefused: a mirrored chunk's backup crashes and
// a view change replaces it. A client write sent in the old view reaches the
// primary at once, and the other backup only after that backup has answered
// the master's probe. The probe sealed the backup, so it refuses the write
// with StaleView, and the write is re-driven in the new view and reads back.
// A probe that only read would let the backup take it: the write would be
// acknowledged in the old view, after the view change had read its versions.
func TestWriteHeldPastTheProbeIsRefused(t *testing.T) {
	clock.Test(t, func() {
		c, closeCluster := chaosCluster(t, false)
		defer closeCluster()
		d := &holdDialer{Dialer: c.Net.Dialer("held-client", transport.NodeConfig{}), replies: make(chan proto.Status, 1)}
		cl := client.New(client.Config{
			Name: "held-client", MasterAddrs: c.MasterAddrs(), Clock: c.Clock(), Dialer: d,
			CallTimeout: chaosClusterOptions(false).CallTimeout,
		})
		defer cl.Close()
		if _, err := cl.CreateVDisk(master.CreateVDiskReq{Name: "held", Size: util.ChunkSize}); err != nil {
			t.Fatal(err)
		}
		vd, err := cl.Open("held")
		if err != nil {
			t.Fatal(err)
		}
		defer vd.Close()
		golden := writeGolden(t, vd)
		old := vd.Meta().Chunks[0]
		backup, dead := old.Replicas[1].Addr, old.Replicas[2].Addr
		id := blockstore.MakeChunkID(vd.ID(), 0)

		c.CrashServer(dead)
		held := d.hold(backup)
		data := make([]byte, 4*util.KiB)
		util.NewRand(9).Fill(data)
		wrote := make(chan error, 1)
		go func() { wrote <- vd.WriteAt(data, 0) }()
		<-held

		type result struct {
			cm  *master.ChunkMeta
			err error
		}
		done := make(chan result, 1)
		go func() {
			cm, err := c.Master.RecoverChunk(vd.ID(), 0, dead, 0)
			done <- result{cm, err}
		}()
		// The replacement's slot exists once the backup has answered the probe.
		for !slices.ContainsFunc(c.ServerAddrs(), func(addr string) bool {
			return !listed(old, addr) && slices.Contains(c.Server(addr).ScrubChunks(), id)
		}) {
			select {
			case res := <-done:
				t.Fatalf("view change ended before the replacement's fill began: %+v, %v", res.cm, res.err)
			case <-time.After(100 * time.Microsecond):
			}
		}
		if err := d.release(); err != nil {
			t.Fatalf("release the held write: %v", err)
		}
		if st := <-d.replies; st != proto.StatusStaleView {
			t.Errorf("the backup answered the write held past its probe %s, want %s", st, proto.StatusStaleView)
		}
		if err := <-wrote; err != nil {
			t.Fatalf("write: %v", err)
		}
		res := <-done
		if res.err != nil || res.cm.View != old.View+2 {
			t.Fatalf("view change: %+v, %v; want view %d, above its seal", res.cm, res.err, old.View+2)
		}
		got := make([]byte, len(golden))
		if err := vd.ReadAt(got, 0); err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got[:len(data)], data) || !bytes.Equal(got[len(data):], golden[len(data):]) {
			t.Fatal("read back other bytes than written")
		}
		auditReplicas(t, c, vd.ID(), 64*util.KiB)
	})
}

// holdDialer's connections hold back the client's writes to one address
// while a hold is set, and report the answer to the first one held.
type holdDialer struct {
	transport.Dialer
	mu      sync.Mutex
	addr    string            // the address whose writes are held
	held    chan struct{}     // closed once one is
	queue   []heldSend        // what is held, in order
	first   *holdConn         // the connection of the first write held
	id      uint64            // and its message ID
	replies chan proto.Status // its answer
}

type heldSend struct {
	conn transport.MsgConn
	m    *proto.Message
}

// hold holds the writes to addr from now on; the channel closes when the
// first is held.
func (d *holdDialer) hold(addr string) <-chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.addr, d.held = addr, make(chan struct{})
	return d.held
}

// release sends what is held and holds nothing more.
func (d *holdDialer) release() error {
	d.mu.Lock()
	queue := d.queue
	d.addr, d.queue = "", nil
	d.mu.Unlock()
	for _, h := range queue {
		if err := h.conn.Send(h.m); err != nil {
			return err
		}
	}
	return nil
}

func (d *holdDialer) Dial(addr string) (transport.MsgConn, error) {
	conn, err := d.Dialer.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &holdConn{MsgConn: conn, d: d, addr: addr}, nil
}

type holdConn struct {
	transport.MsgConn
	d    *holdDialer
	addr string
}

func (c *holdConn) Send(m *proto.Message) error {
	d := c.d
	d.mu.Lock()
	if c.addr != d.addr || m.Op != proto.OpReplicate && m.Op != proto.OpWrite {
		d.mu.Unlock()
		return c.MsgConn.Send(m)
	}
	if len(d.queue) == 0 {
		d.first, d.id = c, m.ID
		close(d.held)
	}
	d.queue = append(d.queue, heldSend{c.MsgConn, m})
	d.mu.Unlock()
	return nil
}

func (c *holdConn) Recv() (*proto.Message, error) {
	m, err := c.MsgConn.Recv()
	d := c.d
	d.mu.Lock()
	if err == nil && c == d.first && m.ID == d.id {
		d.first = nil
		d.replies <- m.Status
	}
	d.mu.Unlock()
	return m, err
}
