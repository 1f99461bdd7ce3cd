package cephlike

import (
	"fmt"

	"ursa/internal/blockstore"
	"ursa/internal/clock"
	"ursa/internal/proto"
	"ursa/internal/simdisk"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// Options sizes a Ceph-like pool.
type Options struct {
	Machines       int
	SSDsPerMachine int
	Replication    int
	Clock          clock.Clock
	SSDModel       simdisk.SSDModel
	Net            *transport.SimNet // shared fabric (required)
	AddrPrefix     string            // avoids collisions when co-hosted with other systems
}

// Cluster is an assembled Ceph-like pool.
type Cluster struct {
	opts  Options
	osds  []*OSD
	addrs []string
	disks []*simdisk.SSD
}

// New builds and starts the pool on the given fabric.
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
		opts.AddrPrefix = "ceph"
	}
	c := &Cluster{opts: opts}
	for i := 0; i < opts.Machines; i++ {
		for j := 0; j < opts.SSDsPerMachine; j++ {
			addr := fmt.Sprintf("%s/m%d/osd%d", opts.AddrPrefix, i, j)
			ssd := simdisk.NewSSD(opts.SSDModel, opts.Clock)
			osd := NewOSD(addr, blockstore.New(ssd, 0), opts.Clock,
				opts.Net.Dialer(addr, transport.NodeConfig{}))
			l, err := opts.Net.Listen(addr, transport.NodeConfig{})
			if err != nil {
				c.Close()
				return nil, err
			}
			osd.Serve(l)
			c.osds = append(c.osds, osd)
			c.addrs = append(c.addrs, addr)
			c.disks = append(c.disks, ssd)
		}
	}
	return c, nil
}

// Close shuts the pool down.
func (c *Cluster) Close() {
	for _, o := range c.osds {
		o.Close()
	}
	for _, d := range c.disks {
		d.Close()
	}
}

// CreateVolume places and creates the objects of a volume and returns its
// client device. Placement is round-robin across OSDs on distinct machines.
func (c *Cluster) CreateVolume(name string, size int64, clientAddr string) (*Volume, error) {
	if size <= 0 || size%util.SectorSize != 0 {
		return nil, fmt.Errorf("cephlike: bad volume size %d: %w", size, util.ErrOutOfRange)
	}
	nobjs := int(util.CeilDiv(size, util.ChunkSize))
	perMachine := c.opts.SSDsPerMachine
	v := &Volume{
		size:  size,
		peers: transport.NewPeers(c.opts.Net.Dialer(clientAddr, transport.NodeConfig{}), c.opts.Clock),
		clk:   c.opts.Clock,
	}
	hash := util.NewRand(uint64(len(name)) + 7)
	for i := 0; i < nobjs; i++ {
		id := uint64(hash.Uint64()<<16) | uint64(i)
		// Pick Replication OSDs on distinct machines.
		start := (i * perMachine) % len(c.addrs)
		var replicas []string
		usedMachines := map[int]bool{}
		for k := 0; len(replicas) < c.opts.Replication && k < len(c.addrs); k++ {
			idx := (start + k) % len(c.addrs)
			machine := idx / perMachine
			if usedMachines[machine] {
				continue
			}
			usedMachines[machine] = true
			replicas = append(replicas, c.addrs[idx])
		}
		if len(replicas) < c.opts.Replication {
			return nil, fmt.Errorf("cephlike: cannot place %d replicas: %w",
				c.opts.Replication, util.ErrQuota)
		}
		v.objects = append(v.objects, objPlacement{id: id, replicas: replicas})
		// Create the object on each replica.
		for _, addr := range replicas {
			resp, err := call(v.peers, v.clk, addr, &proto.Message{Op: proto.OpCreateChunk,
				Payload: encode(&wireMsg{Type: "create", Object: id})}, 0)
			if err != nil {
				return nil, err
			}
			if r, derr := decode(splitPayload(resp)); derr != nil || r.Status != "ok" {
				return nil, fmt.Errorf("cephlike: create object on %s failed", addr)
			}
		}
	}
	return v, nil
}
