package transport

import (
	"bufio"
	"net"
	"sync"
	"time"

	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/proto"
)

// tcpConn frames proto messages over a net.Conn. Writes go through a
// mutex-guarded buffered writer flushed per message: the caller-side RPC
// layer already batches by pipelining many requests before any response is
// awaited.
//
// A message that carries a deadline budget (every request a Flight sends
// does) must be on the wire within it: Send runs on the goroutine that
// awaits the call, and a wedged peer with full socket buffers would
// otherwise block that goroutine — a primary's handler — for good. A send
// that misses the deadline leaves half a frame behind, so the error is
// final for the connection; the flight evicts it.
type tcpConn struct {
	c  net.Conn
	r  *bufio.Reader
	wm sync.Mutex
	w  *bufio.Writer
	rm sync.Mutex
}

// NewTCPConn wraps an established net.Conn.
func NewTCPConn(c net.Conn) MsgConn {
	return &tcpConn{
		c: c,
		r: bufio.NewReaderSize(c, 256<<10),
		w: bufio.NewWriterSize(c, 256<<10),
	}
}

func (t *tcpConn) Send(m *proto.Message) error {
	t.wm.Lock()
	if m.Budget > 0 {
		// Sockets live in wall time whatever clock the models run on.
		_ = t.c.SetWriteDeadline(clock.Realtime.Now().Add(m.Budget)) // a conn without deadlines sends as before
	}
	err := m.Encode(t.w)
	if err == nil {
		err = t.w.Flush()
	}
	if m.Budget > 0 {
		_ = t.c.SetWriteDeadline(time.Time{})
	}
	t.wm.Unlock()
	// Send consumes the caller's reference: the payload is on the wire (or
	// lost with the connection) and the caller must not touch it again.
	bufpool.Put(m.Payload)
	return err
}

func (t *tcpConn) Recv() (*proto.Message, error) {
	t.rm.Lock()
	defer t.rm.Unlock()
	m := new(proto.Message)
	if err := m.Decode(t.r); err != nil {
		return nil, err
	}
	return m, nil
}

func (t *tcpConn) Close() error { return t.c.Close() }

// tcpListener adapts net.Listener.
type tcpListener struct{ l net.Listener }

// ListenTCP starts a TCP listener on addr (e.g. "127.0.0.1:0").
func ListenTCP(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{l: l}, nil
}

func (t *tcpListener) Accept() (MsgConn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return NewTCPConn(c), nil
}

func (t *tcpListener) Close() error { return t.l.Close() }
func (t *tcpListener) Addr() string { return t.l.Addr().String() }

// TCPDialer dials real TCP connections.
type TCPDialer struct{}

// Dial implements Dialer.
func (TCPDialer) Dial(addr string) (MsgConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return NewTCPConn(c), nil
}
