package cephlike

import (
	"encoding/base64"
	"sync"
	"testing"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/clock"
	"ursa/internal/proto"
	"ursa/internal/simdisk"
	"ursa/internal/transport"
)

// raceDialer holds the first two dials at a gate until both have arrived, so
// two callers racing on a cold address both dial, and counts the
// connections it opened and how many of them were closed since.
type raceDialer struct {
	transport.Dialer
	gate chan struct{} // closed by the second dial

	mu             sync.Mutex
	dials          int
	opened, closed int
}

func (d *raceDialer) Dial(addr string) (transport.MsgConn, error) {
	d.mu.Lock()
	if d.dials++; d.dials == 2 {
		close(d.gate)
	}
	d.mu.Unlock()
	select {
	case <-d.gate:
	case <-time.After(5 * time.Second): // the callers never raced: let the one through
	}
	c, err := d.Dialer.Dial(addr)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.opened++
	d.mu.Unlock()
	return &countedConn{MsgConn: c, d: d}, nil
}

type countedConn struct {
	transport.MsgConn
	d    *raceDialer
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() {
		c.d.mu.Lock()
		c.d.closed++
		c.d.mu.Unlock()
	})
	return c.MsgConn.Close()
}

// TestRelayDialRaceLeavesNothingOpen: two writes reach a primary OSD at once
// and both relay to a backup it has no connection to yet, so both dial it;
// the OSD keeps one connection and closes the other, so after Close every
// connection it opened is closed and every goroutine they started has exited.
func TestRelayDialRaceLeavesNothingOpen(t *testing.T) {
	clk := clock.Realtime
	net := transport.NewSimNet(clk, 0)
	ssds := []*simdisk.SSD{simdisk.NewSSD(fastModel(), clk), simdisk.NewSSD(fastModel(), clk)}
	defer func() {
		for _, d := range ssds {
			d.Close()
		}
	}()
	const obj = blockstore.ChunkID(1)
	backup := NewOSD("backup", blockstore.New(ssds[0], 0), clk, net.Dialer("backup", transport.NodeConfig{}))
	l, err := net.Listen("backup", transport.NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	backup.Serve(l)
	defer backup.Close()
	d := &raceDialer{Dialer: net.Dialer("primary", transport.NodeConfig{}), gate: make(chan struct{})}
	primary := NewOSD("primary", blockstore.New(ssds[1], 0), clk, d) // handles requests by direct call
	for _, o := range []*OSD{primary, backup} {
		if err := o.store.Create(obj); err != nil {
			t.Fatal(err)
		}
	}
	if err := clock.Join(func() {
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m := &proto.Message{Op: proto.OpWrite, Payload: encode(&wireMsg{
					Type: "replicate", Object: uint64(obj), Off: int64(i) * 4096, Len: 4096,
					Data: base64.StdEncoding.EncodeToString(make([]byte, 4096)),
				})}
				encodeBackups(m, []string{"backup"})
				if resp := primary.handle(m); resp.Status != proto.StatusOK {
					t.Errorf("write %d: %s", i, resp.Status)
				}
			}()
		}
		wg.Wait()
		primary.Close()

		d.mu.Lock()
		opened, closed := d.opened, d.closed
		d.mu.Unlock()
		if opened != 2 || closed != opened {
			t.Errorf("%d connections opened, %d closed after Close; want 2 and 2", opened, closed)
		}
	}); err != nil {
		t.Fatalf("after Close: %v", err)
	}
}
