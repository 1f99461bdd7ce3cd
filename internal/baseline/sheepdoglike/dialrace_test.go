package sheepdoglike

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"ursa/internal/proto"
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

// TestDialRaceLeavesNothingOpen: two callers racing on a cold server address
// of the volume's pool both dial it; the pool keeps one connection and closes
// the other, so after the volume's Close every connection it opened is closed
// and every goroutine they started has exited.
func TestDialRaceLeavesNothingOpen(t *testing.T) {
	c := testPool(t)
	d := &raceDialer{Dialer: c.opts.Net.Dialer("client", transport.NodeConfig{}), gate: make(chan struct{})}
	v := &Volume{clk: c.opts.Clock, peers: transport.NewPeers(d, c.opts.Clock)}
	goroutines := runtime.NumGoroutine()

	var wg sync.WaitGroup
	conns := make([]*transport.Client, 2)
	for i := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if conns[i], err = v.peers.Get(c.addrs[0]); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if conns[0] != conns[1] {
		t.Error("the racing callers got different connections")
	}
	if _, err := v.call(c.addrs[0], &proto.Message{Op: proto.OpNop}); err != nil {
		t.Fatal(err)
	}
	v.Close()

	d.mu.Lock()
	opened, closed := d.opened, d.closed
	d.mu.Unlock()
	if opened != 2 || closed != opened {
		t.Errorf("%d connections opened, %d closed after Close; want 2 and 2", opened, closed)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the dials", runtime.NumGoroutine(), goroutines)
		}
	}
}
