// Package nbd implements a Network Block Device server over the
// fixed-newstyle protocol, exposing any client.Device (URSA vdisks in
// particular) to real initiators — the qemu NBD driver is how the paper's
// VMMs attach virtual disks (§3.1). Requests are executed concurrently and
// responses may complete out of order, exactly as block devices behave
// (§3.4's discussion of guest-visible parallelism).
package nbd

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"ursa/internal/client"
	"ursa/internal/util"
)

// Protocol constants (see the NBD protocol specification).
const (
	nbdMagic       = 0x4e42444d41474943 // "NBDMAGIC"
	iHaveOpt       = 0x49484156454F5054 // "IHAVEOPT"
	requestMagic   = 0x25609513
	responseMagic  = 0x67446698
	optReplyMagic  = 0x3e889045565a9
	flagFixedStyle = 1 << 0
	flagNoZeroes   = 1 << 1

	optExportName = 1
	optAbort      = 2
	optList       = 3
	optGo         = 7

	repAck         = 1
	repServer      = 2
	repInfo        = 3
	repErrUnsup    = 0x80000001
	infoTypeExport = 0

	cmdRead  = 0
	cmdWrite = 1
	cmdDisc  = 2
	cmdFlush = 3
	cmdTrim  = 4

	transFlagHasFlags  = 1 << 0
	transFlagSendFlush = 1 << 2

	errIO     = 5
	errInval  = 22
	errNotSup = 95
)

// Export pairs a name with its device.
type Export struct {
	Name   string
	Device client.Device
}

// Server serves one or more exports.
type Server struct {
	mu      sync.Mutex
	exports map[string]client.Device
	ln      net.Listener
	wg      sync.WaitGroup
	closed  bool
}

// NewServer creates a server with the given exports.
func NewServer(exports ...Export) *Server {
	s := &Server{exports: make(map[string]client.Device)}
	for _, e := range exports {
		s.exports[e.Name] = e.Device
	}
	return s
}

// Serve accepts NBD clients on ln until Close.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			_ = s.handleConn(conn)
		}()
	}
}

// Close stops accepting and waits for connections to finish.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
}

func (s *Server) lookup(name string) client.Device {
	s.mu.Lock()
	defer s.mu.Unlock()
	if name == "" && len(s.exports) == 1 {
		for _, d := range s.exports {
			return d
		}
	}
	return s.exports[name]
}

// handleConn runs the fixed-newstyle handshake then the transmission
// phase.
func (s *Server) handleConn(conn net.Conn) error {
	// Server greeting.
	var greet [18]byte
	binary.BigEndian.PutUint64(greet[0:], nbdMagic)
	binary.BigEndian.PutUint64(greet[8:], iHaveOpt)
	binary.BigEndian.PutUint16(greet[16:], flagFixedStyle|flagNoZeroes)
	if _, err := conn.Write(greet[:]); err != nil {
		return err
	}
	var cflags [4]byte
	if _, err := io.ReadFull(conn, cflags[:]); err != nil {
		return err
	}
	noZeroes := binary.BigEndian.Uint32(cflags[:])&flagNoZeroes != 0

	// Option haggling.
	for {
		var hdr [16]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return err
		}
		if binary.BigEndian.Uint64(hdr[0:]) != iHaveOpt {
			return fmt.Errorf("nbd: bad option magic")
		}
		opt := binary.BigEndian.Uint32(hdr[8:])
		length := binary.BigEndian.Uint32(hdr[12:])
		if length > 4096 {
			return fmt.Errorf("nbd: oversized option")
		}
		data := make([]byte, length)
		if _, err := io.ReadFull(conn, data); err != nil {
			return err
		}
		switch opt {
		case optExportName:
			dev := s.lookup(string(data))
			if dev == nil {
				return fmt.Errorf("nbd: unknown export %q", data)
			}
			if err := s.sendExportInfo(conn, dev, noZeroes); err != nil {
				return err
			}
			return s.transmission(conn, dev)
		case optGo:
			dev, err := s.handleGo(conn, data)
			if err != nil {
				return err
			}
			if dev == nil {
				continue // error reply sent; client may retry
			}
			return s.transmission(conn, dev)
		case optAbort:
			_ = optReply(conn, opt, repAck, nil)
			return nil
		case optList:
			s.mu.Lock()
			names := make([]string, 0, len(s.exports))
			for n := range s.exports {
				names = append(names, n)
			}
			s.mu.Unlock()
			for _, n := range names {
				payload := make([]byte, 4+len(n))
				binary.BigEndian.PutUint32(payload, uint32(len(n)))
				copy(payload[4:], n)
				if err := optReply(conn, opt, repServer, payload); err != nil {
					return err
				}
			}
			if err := optReply(conn, opt, repAck, nil); err != nil {
				return err
			}
		default:
			if err := optReply(conn, opt, repErrUnsup, nil); err != nil {
				return err
			}
		}
	}
}

// handleGo processes NBD_OPT_GO: name-length-prefixed export name plus an
// info-request list. Replies with export info + ack, or an error reply
// (returning nil, nil so haggling continues).
func (s *Server) handleGo(conn net.Conn, data []byte) (client.Device, error) {
	if len(data) < 4 {
		return nil, optReply(conn, optGo, repErrUnsup, nil)
	}
	nameLen := int(binary.BigEndian.Uint32(data))
	if 4+nameLen > len(data) {
		return nil, fmt.Errorf("nbd: malformed GO option")
	}
	name := string(data[4 : 4+nameLen])
	dev := s.lookup(name)
	if dev == nil {
		if err := optReply(conn, optGo, repErrUnsup, nil); err != nil {
			return nil, err
		}
		return nil, nil
	}
	info := make([]byte, 12)
	binary.BigEndian.PutUint16(info[0:], infoTypeExport)
	binary.BigEndian.PutUint64(info[2:], uint64(dev.Size()))
	binary.BigEndian.PutUint16(info[10:], transFlagHasFlags|transFlagSendFlush)
	if err := optReply(conn, optGo, repInfo, info); err != nil {
		return nil, err
	}
	if err := optReply(conn, optGo, repAck, nil); err != nil {
		return nil, err
	}
	return dev, nil
}

// optReply writes one option reply frame.
func optReply(conn net.Conn, opt, typ uint32, payload []byte) error {
	buf := make([]byte, 20+len(payload))
	binary.BigEndian.PutUint64(buf[0:], optReplyMagic)
	binary.BigEndian.PutUint32(buf[8:], opt)
	binary.BigEndian.PutUint32(buf[12:], typ)
	binary.BigEndian.PutUint32(buf[16:], uint32(len(payload)))
	copy(buf[20:], payload)
	_, err := conn.Write(buf)
	return err
}

// sendExportInfo answers NBD_OPT_EXPORT_NAME: size + flags (+ 124 zeroes
// unless negotiated away).
func (s *Server) sendExportInfo(conn net.Conn, dev client.Device, noZeroes bool) error {
	n := 10
	if !noZeroes {
		n += 124
	}
	buf := make([]byte, n)
	binary.BigEndian.PutUint64(buf[0:], uint64(dev.Size()))
	binary.BigEndian.PutUint16(buf[8:], transFlagHasFlags|transFlagSendFlush)
	_, err := conn.Write(buf)
	return err
}

// transmission is the steady-state request loop: requests execute
// concurrently; a write mutex serializes responses.
func (s *Server) transmission(conn net.Conn, dev client.Device) error {
	var wm sync.Mutex
	var wg sync.WaitGroup
	defer wg.Wait()

	reply := func(handle uint64, errno uint32, data []byte) error {
		wm.Lock()
		defer wm.Unlock()
		var hdr [16]byte
		binary.BigEndian.PutUint32(hdr[0:], responseMagic)
		binary.BigEndian.PutUint32(hdr[4:], errno)
		binary.BigEndian.PutUint64(hdr[8:], handle)
		if _, err := conn.Write(hdr[:]); err != nil {
			return err
		}
		if len(data) > 0 {
			if _, err := conn.Write(data); err != nil {
				return err
			}
		}
		return nil
	}

	for {
		var hdr [28]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return err
		}
		if binary.BigEndian.Uint32(hdr[0:]) != requestMagic {
			return fmt.Errorf("nbd: bad request magic")
		}
		cmd := binary.BigEndian.Uint16(hdr[6:])
		handle := binary.BigEndian.Uint64(hdr[8:])
		offset := int64(binary.BigEndian.Uint64(hdr[16:]))
		length := binary.BigEndian.Uint32(hdr[24:])
		if length > 32*util.MiB {
			return fmt.Errorf("nbd: oversized request")
		}

		switch cmd {
		case cmdRead:
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, length)
				if err := dev.ReadAt(buf, offset); err != nil {
					_ = reply(handle, errIO, nil)
					return
				}
				_ = reply(handle, 0, buf)
			}()
		case cmdWrite:
			// The payload must be consumed in order on the socket.
			buf := make([]byte, length)
			if _, err := io.ReadFull(conn, buf); err != nil {
				return err
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := dev.WriteAt(buf, offset); err != nil {
					_ = reply(handle, errIO, nil)
					return
				}
				_ = reply(handle, 0, nil)
			}()
		case cmdFlush:
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := dev.Flush(); err != nil {
					_ = reply(handle, errIO, nil)
					return
				}
				_ = reply(handle, 0, nil)
			}()
		case cmdDisc:
			return nil
		case cmdTrim:
			// Trim is advisory; acknowledge without action.
			if err := reply(handle, 0, nil); err != nil {
				return err
			}
		default:
			if err := reply(handle, errNotSup, nil); err != nil {
				return err
			}
		}
	}
}
