package nbd

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"ursa/internal/util"
)

// Client is an NBD initiator implementing client.Device over a TCP
// connection. Requests pipeline: many may be in flight, matched to
// responses by handle.
type Client struct {
	conn net.Conn
	size int64

	wm sync.Mutex // serializes request frames

	mu      sync.Mutex
	next    uint64
	pending map[uint64]chan clientResp
	closed  bool

	readerDone chan struct{}
}

type clientResp struct {
	errno uint32
	data  []byte
}

// Dial connects to an NBD server and negotiates the named export with
// NBD_OPT_EXPORT_NAME.
func Dial(addr, export string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := newClient(conn, export)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

func newClient(conn net.Conn, export string) (*Client, error) {
	var greet [18]byte
	if _, err := io.ReadFull(conn, greet[:]); err != nil {
		return nil, err
	}
	if binary.BigEndian.Uint64(greet[0:]) != nbdMagic ||
		binary.BigEndian.Uint64(greet[8:]) != iHaveOpt {
		return nil, fmt.Errorf("nbd: bad server greeting")
	}
	flags := binary.BigEndian.Uint16(greet[16:])
	var cflags [4]byte
	binary.BigEndian.PutUint32(cflags[:], uint32(flags)&(flagFixedStyle|flagNoZeroes))
	if _, err := conn.Write(cflags[:]); err != nil {
		return nil, err
	}
	// EXPORT_NAME option.
	opt := make([]byte, 16+len(export))
	binary.BigEndian.PutUint64(opt[0:], iHaveOpt)
	binary.BigEndian.PutUint32(opt[8:], optExportName)
	binary.BigEndian.PutUint32(opt[12:], uint32(len(export)))
	copy(opt[16:], export)
	if _, err := conn.Write(opt); err != nil {
		return nil, err
	}
	respLen := 10
	if flags&flagNoZeroes == 0 {
		respLen += 124
	}
	resp := make([]byte, respLen)
	if _, err := io.ReadFull(conn, resp); err != nil {
		return nil, err
	}
	c := &Client{
		conn:       conn,
		size:       int64(binary.BigEndian.Uint64(resp[0:])),
		pending:    make(map[uint64]chan clientResp),
		readerDone: make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

func (c *Client) readLoop() {
	defer close(c.readerDone)
	for {
		var hdr [16]byte
		if _, err := io.ReadFull(c.conn, hdr[:]); err != nil {
			c.failAll()
			return
		}
		if binary.BigEndian.Uint32(hdr[0:]) != responseMagic {
			c.failAll()
			return
		}
		errno := binary.BigEndian.Uint32(hdr[4:])
		handle := binary.BigEndian.Uint64(hdr[8:])
		c.mu.Lock()
		ch, ok := c.pending[handle]
		var want int
		if ok {
			delete(c.pending, handle)
			want = int(handle >> 40) // read length stashed in high bits
		}
		c.mu.Unlock()
		var data []byte
		if ok && want > 0 && errno == 0 {
			data = make([]byte, want)
			if _, err := io.ReadFull(c.conn, data); err != nil {
				if ok {
					ch <- clientResp{errno: errIO}
				}
				c.failAll()
				return
			}
		}
		if ok {
			ch <- clientResp{errno: errno, data: data}
		}
	}
}

func (c *Client) failAll() {
	c.mu.Lock()
	c.closed = true
	for h, ch := range c.pending {
		delete(c.pending, h)
		close(ch)
	}
	c.mu.Unlock()
}

// request issues one command and waits for its response.
func (c *Client) request(cmd uint16, off int64, length uint32, payload []byte, readLen int) (clientResp, error) {
	ch := make(chan clientResp, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return clientResp{}, util.ErrClosed
	}
	c.next++
	// Stash the expected read length in the handle's high bits so the
	// read loop knows how much payload follows the response header.
	handle := (uint64(readLen) << 40) | (c.next & 0xffffffffff)
	c.pending[handle] = ch
	c.mu.Unlock()

	var hdr [28]byte
	binary.BigEndian.PutUint32(hdr[0:], requestMagic)
	binary.BigEndian.PutUint16(hdr[6:], cmd)
	binary.BigEndian.PutUint64(hdr[8:], handle)
	binary.BigEndian.PutUint64(hdr[16:], uint64(off))
	binary.BigEndian.PutUint32(hdr[24:], length)

	c.wm.Lock()
	_, err := c.conn.Write(hdr[:])
	if err == nil && len(payload) > 0 {
		_, err = c.conn.Write(payload)
	}
	c.wm.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, handle)
		c.mu.Unlock()
		return clientResp{}, err
	}
	resp, ok := <-ch
	if !ok {
		return clientResp{}, util.ErrClosed
	}
	return resp, nil
}

// ReadAt implements client.Device.
func (c *Client) ReadAt(p []byte, off int64) error {
	resp, err := c.request(cmdRead, off, uint32(len(p)), nil, len(p))
	if err != nil {
		return err
	}
	if resp.errno != 0 {
		return fmt.Errorf("nbd: read error %d", resp.errno)
	}
	copy(p, resp.data)
	return nil
}

// WriteAt implements client.Device.
func (c *Client) WriteAt(p []byte, off int64) error {
	resp, err := c.request(cmdWrite, off, uint32(len(p)), p, 0)
	if err != nil {
		return err
	}
	if resp.errno != 0 {
		return fmt.Errorf("nbd: write error %d", resp.errno)
	}
	return nil
}

// Flush implements client.Device.
func (c *Client) Flush() error {
	resp, err := c.request(cmdFlush, 0, 0, nil, 0)
	if err != nil {
		return err
	}
	if resp.errno != 0 {
		return fmt.Errorf("nbd: flush error %d", resp.errno)
	}
	return nil
}

// Size implements client.Device.
func (c *Client) Size() int64 { return c.size }

// Close sends NBD_CMD_DISC and tears the connection down.
func (c *Client) Close() error {
	c.wm.Lock()
	var hdr [28]byte
	binary.BigEndian.PutUint32(hdr[0:], requestMagic)
	binary.BigEndian.PutUint16(hdr[6:], cmdDisc)
	_, _ = c.conn.Write(hdr[:])
	c.wm.Unlock()
	err := c.conn.Close()
	<-c.readerDone
	return err
}
