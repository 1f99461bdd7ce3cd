// Package cephlike reimplements the replication architecture URSA is
// compared against in §6: a Ceph-style object store in its SSD-only
// configuration. It runs on the same simulated disks and network fabric as
// URSA, so the measured differences are architectural, not environmental:
//
//   - All writes go client → primary OSD → backups (primary-relay); there
//     is no client-directed fast path for small writes.
//   - Messages use verbose self-describing serialization (JSON with
//     base64 payloads) and an extra marshal/unmarshal per hop — the kind
//     of per-op CPU the paper's Fig 7 attributes to Ceph's stack.
//   - Each OSD dispatches through a small sharded worker pool behind a
//     dispatch lock, limiting out-of-order execution.
//
// The comparison is deliberately charitable where the paper is: reads are
// served from primary SSD replicas, placement spreads objects across
// machines, and replication is 3-way.
package cephlike

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// wireMsg is the verbose message format (every field self-describing, data
// base64-encoded — decoding costs real CPU, as in the measured system).
type wireMsg struct {
	Type    string `json:"type"`
	Object  uint64 `json:"object"`
	Off     int64  `json:"off"`
	Len     int    `json:"len"`
	Data    string `json:"data,omitempty"`
	Replica int    `json:"replica,omitempty"`
	Status  string `json:"status,omitempty"`
}

func encode(m *wireMsg) []byte {
	b, _ := json.Marshal(m)
	return b
}

func decode(p []byte) (*wireMsg, error) {
	var m wireMsg
	if err := json.Unmarshal(p, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// osdWorkers is the per-OSD dispatch width (sharded op queue).
const osdWorkers = 4

// OSD is one object storage daemon.
type OSD struct {
	addr  string
	store *blockstore.Store

	dispatchMu sync.Mutex // the "big dispatch lock": decode under it
	// Client-facing ops and peer replication ops run in separate sharded
	// queues (as in the measured system's messenger): a primary op may
	// block on replica acks, so replica ops must never wait behind one or
	// the pools deadlock in a cycle of primaries.
	workSem chan struct{}
	replSem chan struct{}

	peers *transport.Peers // connections to the backups it relays to
	clk   clock.Clock

	rpc *transport.Server
}

// NewOSD creates an OSD over an SSD-backed chunk store.
func NewOSD(addr string, store *blockstore.Store, clk clock.Clock, dialer transport.Dialer) *OSD {
	return &OSD{
		addr:    addr,
		store:   store,
		workSem: make(chan struct{}, osdWorkers),
		replSem: make(chan struct{}, osdWorkers),
		peers:   transport.NewPeers(dialer, clk),
		clk:     clk,
	}
}

// Serve starts the OSD's RPC service.
func (o *OSD) Serve(l transport.Listener) { o.rpc = transport.Serve(l, o.handle) }

// Close stops the OSD.
func (o *OSD) Close() {
	if o.rpc != nil {
		o.rpc.Close()
	}
	o.peers.CloseAll()
}

// handle processes one request: decode under the dispatch lock, execute on
// a bounded worker slot.
func (o *OSD) handle(m *proto.Message) *proto.Message {
	o.dispatchMu.Lock()
	req, err := decode(splitPayload(m))
	o.dispatchMu.Unlock()
	if err != nil {
		return errorReply(m, "decode")
	}
	sem := o.workSem
	if m.Op == proto.OpReplicate {
		sem = o.replSem
	}
	sem <- struct{}{}
	defer func() { <-sem }()

	switch req.Type {
	case "create":
		if err := o.store.Create(blockstore.ChunkID(req.Object)); err != nil {
			return errorReply(m, "create")
		}
		return okReply(m, &wireMsg{Type: "created", Object: req.Object})
	case "read":
		buf := make([]byte, req.Len)
		if err := o.store.ReadAt(blockstore.ChunkID(req.Object), buf, req.Off); err != nil {
			return errorReply(m, "read")
		}
		return okReply(m, &wireMsg{
			Type: "data", Object: req.Object, Off: req.Off, Len: req.Len,
			Data: base64.StdEncoding.EncodeToString(buf),
		})
	case "write":
		data, err := base64.StdEncoding.DecodeString(req.Data)
		if err != nil {
			return errorReply(m, "base64")
		}
		// Extra defensive copy (journaling double-write heritage).
		shadow := make([]byte, len(data))
		copy(shadow, data)
		if err := o.store.WriteAt(blockstore.ChunkID(req.Object), shadow, req.Off); err != nil {
			return errorReply(m, "write")
		}
		return okReply(m, &wireMsg{Type: "acked", Object: req.Object})
	case "replicate":
		// Primary path: local write, then relay to backups and wait all.
		data, err := base64.StdEncoding.DecodeString(req.Data)
		if err != nil {
			return errorReply(m, "base64")
		}
		shadow := make([]byte, len(data))
		copy(shadow, data)
		if err := o.store.WriteAt(blockstore.ChunkID(req.Object), shadow, req.Off); err != nil {
			return errorReply(m, "write")
		}
		if err := o.relay(m, req); err != nil {
			return errorReply(m, "relay")
		}
		return okReply(m, &wireMsg{Type: "acked", Object: req.Object})
	default:
		return errorReply(m, "op")
	}
}

// relay forwards the write to backups (re-encoding it — another real CPU
// cost of the relay architecture) and waits for every ack.
func (o *OSD) relay(m *proto.Message, req *wireMsg) error {
	backups := decodeBackups(m)
	errs := make(chan error, len(backups))
	for _, addr := range backups {
		go func(addr string) {
			fwd := &proto.Message{Op: proto.OpReplicate, Payload: encode(&wireMsg{
				Type: "write", Object: req.Object, Off: req.Off,
				Len: req.Len, Data: req.Data,
			})}
			resp, err := call(o.peers, o.clk, addr, fwd, 30*time.Second)
			if err != nil {
				errs <- err
				return
			}
			r, err := decode(resp.Payload)
			bufpool.Put(resp.Payload)
			if err != nil || r.Status != "ok" {
				errs <- fmt.Errorf("cephlike: replica nack")
				return
			}
			errs <- nil
		}(addr)
	}
	for range backups {
		if err := <-errs; err != nil {
			return err
		}
	}
	return nil
}

// encodeBackups appends the backup addresses to the payload as JSON and
// puts their length in the header's Version field, so the primary relays
// them without a wire format of their own; decodeBackups reads them back.
func encodeBackups(m *proto.Message, backups []string) {
	b, _ := json.Marshal(backups)
	m.Version = uint64(len(b))
	m.Payload = append(m.Payload, b...)
}

func decodeBackups(m *proto.Message) []string {
	n := int(m.Version)
	if n == 0 || n > len(m.Payload) {
		return nil
	}
	var backups []string
	_ = json.Unmarshal(m.Payload[len(m.Payload)-n:], &backups)
	return backups
}

func okReply(m *proto.Message, body *wireMsg) *proto.Message {
	body.Status = "ok"
	r := m.Reply(proto.StatusOK)
	r.Version = 0 // Version is backup-routing metadata on requests only
	r.Payload = encode(body)
	return r
}

func errorReply(m *proto.Message, what string) *proto.Message {
	r := m.Reply(proto.StatusError)
	r.Version = 0
	r.Payload = encode(&wireMsg{Status: "error:" + what})
	return r
}

// splitPayload separates the JSON body from trailing backup routing.
func splitPayload(m *proto.Message) []byte {
	n := int(m.Version)
	if n > 0 && n <= len(m.Payload) {
		return m.Payload[:len(m.Payload)-n]
	}
	return m.Payload
}

// Volume is the client-side block device over a Ceph-like pool.
type Volume struct {
	size    int64
	objects []objPlacement // per 64 MB object
	peers   *transport.Peers
	clk     clock.Clock
}

type objPlacement struct {
	id       uint64
	replicas []string // primary first
}

// Size implements the block-device size.
func (v *Volume) Size() int64 { return v.size }

// Flush is a no-op: writes are durable on return.
func (v *Volume) Flush() error { return nil }

// Close tears down connections.
func (v *Volume) Close() error {
	v.peers.CloseAll()
	return nil
}

// ReadAt reads from each object's primary replica.
func (v *Volume) ReadAt(p []byte, off int64) error {
	return v.forEach(p, off, func(obj objPlacement, buf []byte, objOff int64) error {
		resp, err := call(v.peers, v.clk, obj.replicas[0], &proto.Message{Op: proto.OpRead, Payload: encode(&wireMsg{
			Type: "read", Object: obj.id, Off: objOff, Len: len(buf),
		})}, 0)
		if err != nil {
			return err
		}
		r, err := decode(splitPayload(resp))
		if err != nil || r.Status != "ok" {
			return fmt.Errorf("cephlike: read failed")
		}
		data, err := base64.StdEncoding.DecodeString(r.Data)
		if err != nil {
			return err
		}
		copy(buf, data)
		return nil
	})
}

// WriteAt sends every write to the object's primary, which relays it.
func (v *Volume) WriteAt(p []byte, off int64) error {
	return v.forEach(p, off, func(obj objPlacement, buf []byte, objOff int64) error {
		m := &proto.Message{Op: proto.OpWrite, Payload: encode(&wireMsg{
			Type: "replicate", Object: obj.id, Off: objOff, Len: len(buf),
			Data: base64.StdEncoding.EncodeToString(buf),
		})}
		encodeBackups(m, obj.replicas[1:])
		resp, err := call(v.peers, v.clk, obj.replicas[0], m, 0)
		if err != nil {
			return err
		}
		r, err := decode(splitPayload(resp))
		if err != nil || r.Status != "ok" {
			return fmt.Errorf("cephlike: write failed")
		}
		return nil
	})
}

// call sends m to addr on an op of its own, bounded by timeout (0: by nothing
// but the connection).
func call(p *transport.Peers, clk clock.Clock, addr string, m *proto.Message, timeout time.Duration) (*proto.Message, error) {
	op := opctx.New(clk, timeout)
	defer op.Release()
	return p.Do(op, addr, m, 0)
}

// forEach fragments a request over 64 MB objects.
func (v *Volume) forEach(p []byte, off int64, fn func(objPlacement, []byte, int64) error) error {
	if off < 0 || off+int64(len(p)) > v.size {
		return fmt.Errorf("cephlike: [%d,%d) out of volume: %w",
			off, off+int64(len(p)), util.ErrOutOfRange)
	}
	type piece struct {
		obj    objPlacement
		buf    []byte
		objOff int64
	}
	var pieces []piece
	for done := 0; done < len(p); {
		idx := (off + int64(done)) / util.ChunkSize
		objOff := (off + int64(done)) % util.ChunkSize
		n := int(util.ChunkSize - objOff)
		if n > len(p)-done {
			n = len(p) - done
		}
		pieces = append(pieces, piece{v.objects[idx], p[done : done+n], objOff})
		done += n
	}
	if len(pieces) == 1 {
		return fn(pieces[0].obj, pieces[0].buf, pieces[0].objOff)
	}
	errs := make(chan error, len(pieces))
	for _, pc := range pieces {
		go func(pc piece) { errs <- fn(pc.obj, pc.buf, pc.objOff) }(pc)
	}
	var first error
	for range pieces {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}
