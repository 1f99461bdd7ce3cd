// Package sheepdoglike reimplements the replication architecture of the
// paper's second comparator (§6): a Sheepdog-style store in SSD-only mode.
// It shares URSA's simulated disks and network fabric, isolating the
// architectural differences the paper measures:
//
//   - The client ("gateway") always issues all primary and backup writes
//     itself, in parallel, and waits for every ack — there is no
//     primary-relay and no majority rule.
//   - Connections carry ONE outstanding request at a time (the measured
//     system's gateway processes a virtual disk's requests through a
//     single event loop): no pipelining, so queue depth buys little.
//   - Servers execute each connection's requests strictly in order: no
//     out-of-order execution or completion.
package sheepdoglike

import (
	"encoding/binary"
	"fmt"
	"sync"

	"ursa/internal/blockstore"
	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/simdisk"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// Server is one sheep daemon: an object store executing requests in
// arrival order.
type Server struct {
	addr  string
	store *blockstore.Store
	mu    sync.Mutex // strict in-order execution
	rpc   *transport.Server
}

// NewServer creates a sheep over an SSD store.
func NewServer(addr string, store *blockstore.Store) *Server {
	return &Server{addr: addr, store: store}
}

// Serve starts the RPC service.
func (s *Server) Serve(l transport.Listener) { s.rpc = transport.Serve(l, s.handle) }

// Close stops the server.
func (s *Server) Close() {
	if s.rpc != nil {
		s.rpc.Close()
	}
}

func (s *Server) handle(m *proto.Message) *proto.Message {
	// One request at a time — the single-threaded event loop.
	s.mu.Lock()
	defer s.mu.Unlock()
	switch m.Op {
	case proto.OpCreateChunk:
		if err := s.store.Create(m.Chunk); err != nil {
			return m.Reply(proto.StatusError)
		}
		return m.Reply(proto.StatusOK)
	case proto.OpRead:
		buf := make([]byte, m.Length)
		if err := s.store.ReadAt(m.Chunk, buf, m.Off); err != nil {
			return m.Reply(proto.StatusError)
		}
		r := m.Reply(proto.StatusOK)
		r.Payload = buf
		return r
	case proto.OpWrite, proto.OpReplicate:
		// A defensive copy per hop (the measured system's gateway copies
		// between its event loop and workers).
		shadow := make([]byte, len(m.Payload))
		copy(shadow, m.Payload)
		if err := s.store.WriteAt(m.Chunk, shadow, m.Off); err != nil {
			return m.Reply(proto.StatusError)
		}
		return m.Reply(proto.StatusOK)
	default:
		return m.Reply(proto.StatusError)
	}
}

// Options sizes a Sheepdog-like cluster.
type Options struct {
	Machines       int
	SSDsPerMachine int
	Replication    int
	Clock          clock.Clock
	SSDModel       simdisk.SSDModel
	Net            *transport.SimNet
	AddrPrefix     string
}

// Cluster is an assembled Sheepdog-like deployment.
type Cluster struct {
	opts    Options
	servers []*Server
	addrs   []string
	disks   []*simdisk.SSD
}

// New builds and starts the cluster.
func New(opts Options) (*Cluster, error) {
	if opts.Machines <= 0 {
		opts.Machines = 3
	}
	if opts.SSDsPerMachine <= 0 {
		opts.SSDsPerMachine = 2
	}
	if opts.Replication <= 0 {
		opts.Replication = 3
	}
	if opts.Clock == nil {
		opts.Clock = clock.Realtime
	}
	if opts.SSDModel.Capacity == 0 {
		opts.SSDModel = simdisk.DefaultSSD()
	}
	if opts.AddrPrefix == "" {
		opts.AddrPrefix = "sheep"
	}
	c := &Cluster{opts: opts}
	for i := 0; i < opts.Machines; i++ {
		for j := 0; j < opts.SSDsPerMachine; j++ {
			addr := fmt.Sprintf("%s/m%d/s%d", opts.AddrPrefix, i, j)
			ssd := simdisk.NewSSD(opts.SSDModel, opts.Clock)
			srv := NewServer(addr, blockstore.New(ssd, 0))
			l, err := opts.Net.Listen(addr, transport.NodeConfig{})
			if err != nil {
				c.Close()
				return nil, err
			}
			srv.Serve(l)
			c.servers = append(c.servers, srv)
			c.addrs = append(c.addrs, addr)
			c.disks = append(c.disks, ssd)
		}
	}
	return c, nil
}

// Close shuts the cluster down.
func (c *Cluster) Close() {
	for _, s := range c.servers {
		s.Close()
	}
	for _, d := range c.disks {
		d.Close()
	}
}

// Volume is the client-side device of a Sheepdog-like virtual disk.
// Different chunks may be in flight concurrently (the gateway's event loop
// overlaps network I/O), but each server connection carries one
// outstanding request — which is why sequential workloads, pinned to one
// chunk's servers, stay flat as queue depth grows (Figs 8–9).
type Volume struct {
	size    int64
	chunks  [][]string // replica addresses per 64 MB chunk
	vdiskID uint32
	clk     clock.Clock
	peers   *transport.Peers
	lanes   sync.Map // server address → *sync.Mutex held across its one outstanding request
}

// CreateVolume creates and places a virtual disk.
func (c *Cluster) CreateVolume(name string, size int64, clientAddr string) (*Volume, error) {
	if size <= 0 || size%util.SectorSize != 0 {
		return nil, fmt.Errorf("sheepdoglike: bad size %d: %w", size, util.ErrOutOfRange)
	}
	v := &Volume{
		size:    size,
		vdiskID: uint32(fnv(name)),
		clk:     c.opts.Clock,
		peers:   transport.NewPeers(c.opts.Net.Dialer(clientAddr, transport.NodeConfig{}), c.opts.Clock),
	}
	nchunks := int(util.CeilDiv(size, util.ChunkSize))
	perMachine := c.opts.SSDsPerMachine
	for i := 0; i < nchunks; i++ {
		start := (i * perMachine) % len(c.addrs)
		var replicas []string
		used := map[int]bool{}
		for k := 0; len(replicas) < c.opts.Replication && k < len(c.addrs); k++ {
			idx := (start + k) % len(c.addrs)
			if used[idx/perMachine] {
				continue
			}
			used[idx/perMachine] = true
			replicas = append(replicas, c.addrs[idx])
		}
		if len(replicas) < c.opts.Replication {
			return nil, fmt.Errorf("sheepdoglike: placement: %w", util.ErrQuota)
		}
		v.chunks = append(v.chunks, replicas)
		id := blockstore.MakeChunkID(v.vdiskID, uint32(i))
		for _, addr := range replicas {
			resp, err := v.call(addr, &proto.Message{Op: proto.OpCreateChunk, Chunk: id})
			if err != nil || resp.Status != proto.StatusOK {
				return nil, fmt.Errorf("sheepdoglike: create chunk on %s failed", addr)
			}
		}
	}
	return v, nil
}

func fnv(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], h)
	return binary.LittleEndian.Uint64(b[:])
}

// call sends m to addr and waits for the answer, behind any request already
// outstanding on that server's connection.
func (v *Volume) call(addr string, m *proto.Message) (*proto.Message, error) {
	lane, ok := v.lanes.Load(addr)
	if !ok {
		lane, _ = v.lanes.LoadOrStore(addr, new(sync.Mutex))
	}
	lane.(*sync.Mutex).Lock()
	defer lane.(*sync.Mutex).Unlock()
	op := opctx.New(v.clk, 0)
	defer op.Release()
	return v.peers.Do(op, addr, m, 0)
}

// Size implements the block device size.
func (v *Volume) Size() int64 { return v.size }

// Flush is a no-op.
func (v *Volume) Flush() error { return nil }

// Close tears down connections.
func (v *Volume) Close() error {
	v.peers.CloseAll()
	return nil
}

// ReadAt reads each piece from the first replica.
func (v *Volume) ReadAt(p []byte, off int64) error {
	return v.forEach(p, off, func(idx int, buf []byte, chunkOff int64) error {
		resp, err := v.call(v.chunks[idx][0], &proto.Message{
			Op:     proto.OpRead,
			Chunk:  blockstore.MakeChunkID(v.vdiskID, uint32(idx)),
			Off:    chunkOff,
			Length: uint32(len(buf)),
		})
		if err != nil {
			return err
		}
		if resp.Status != proto.StatusOK {
			return fmt.Errorf("sheepdoglike: read failed: %s", resp.Status)
		}
		copy(buf, resp.Payload)
		bufpool.Put(resp.Payload)
		return nil
	})
}

// WriteAt fans every piece out to all replicas and waits for all acks.
func (v *Volume) WriteAt(p []byte, off int64) error {
	return v.forEach(p, off, func(idx int, buf []byte, chunkOff int64) error {
		id := blockstore.MakeChunkID(v.vdiskID, uint32(idx))
		replicas := v.chunks[idx]
		errs := make(chan error, len(replicas))
		for _, addr := range replicas {
			go func(addr string) {
				resp, err := v.call(addr, &proto.Message{
					Op:      proto.OpWrite,
					Chunk:   id,
					Off:     chunkOff,
					Payload: buf,
				})
				if err != nil {
					errs <- err
					return
				}
				if resp.Status != proto.StatusOK {
					errs <- fmt.Errorf("sheepdoglike: write nack")
					return
				}
				errs <- nil
			}(addr)
		}
		for range replicas {
			if err := <-errs; err != nil {
				return err
			}
		}
		return nil
	})
}

// forEach fragments a request over chunks.
func (v *Volume) forEach(p []byte, off int64, fn func(int, []byte, int64) error) error {
	if off < 0 || off+int64(len(p)) > v.size {
		return fmt.Errorf("sheepdoglike: [%d,%d) out of volume: %w",
			off, off+int64(len(p)), util.ErrOutOfRange)
	}
	for done := 0; done < len(p); {
		idx := int((off + int64(done)) / util.ChunkSize)
		chunkOff := (off + int64(done)) % util.ChunkSize
		n := int(util.ChunkSize - chunkOff)
		if n > len(p)-done {
			n = len(p) - done
		}
		if err := fn(idx, p[done:done+n], chunkOff); err != nil {
			return err
		}
		done += n
	}
	return nil
}
