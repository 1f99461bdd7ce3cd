// Command ursa-chunkserver runs one chunk-server process over real TCP,
// backed by simulated devices (this reproduction's stand-in for raw SSDs
// and HDDs). A primary server stores chunks on a simulated SSD; a backup
// server stores them on a simulated HDD behind an SSD journal with an HDD
// overflow journal (§3.2).
//
// Usage:
//
//	ursa-chunkserver -listen 127.0.0.1:7101 -master 127.0.0.1:7000 \
//	    -machine m1 -role primary
//	ursa-chunkserver -listen 127.0.0.1:7102 -master 127.0.0.1:7000 \
//	    -machine m1 -role backup
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"

	"ursa/internal/blockstore"
	"ursa/internal/chunkserver"
	"ursa/internal/clock"
	"ursa/internal/core"
	"ursa/internal/journal"
	"ursa/internal/master"
	"ursa/internal/proto"
	"ursa/internal/simdisk"
	"ursa/internal/transport"
	"ursa/internal/util"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:7101", "address to listen on")
		masterAddr = flag.String("master", "127.0.0.1:7000", "master address")
		machine    = flag.String("machine", "m0", "machine name for placement")
		role       = flag.String("role", "primary", "primary (SSD) or backup (HDD+journal)")
		capacity   = flag.Int64("capacity", 32*util.GiB, "device capacity in bytes")
	)
	flag.Parse()

	clk := clock.Realtime
	dialer := transport.TCPDialer{}

	var store *blockstore.Store
	var jset *journal.Set
	switch *role {
	case "primary":
		m := simdisk.DefaultSSD()
		m.Capacity = *capacity
		store = blockstore.New(simdisk.NewSSD(m, clk), 0)
	case "backup":
		hm := simdisk.DefaultHDD()
		hm.Capacity = *capacity
		hdd := simdisk.NewHDD(hm, clk)
		// Journal SSD sized at 1/10 of the HDD it fronts (§3.2's quota,
		// applied to the single-device layout of a standalone process).
		sm := simdisk.DefaultSSD()
		sm.Capacity = util.AlignUp(*capacity/10, util.SectorSize)
		jssd := simdisk.NewSSD(sm, clk)

		// The layout is the in-process cluster's (core.NewBackup): slots, then
		// the HDD overflow journal at the device's tail.
		store, jset, _ = core.NewBackup(clk, *listen, hdd, jssd, 0, util.AlignDown(sm.Capacity, util.SectorSize), true, nil)
	default:
		log.Fatalf("unknown role %q", *role)
	}
	srv := chunkserver.New(chunkserver.Config{
		Addr: *listen, Clock: clk, Dialer: dialer,
		MasterAddrs: []string{*masterAddr},
	}, store, jset)

	l, err := transport.ListenTCP(*listen)
	if err != nil {
		log.Fatalf("listen %s: %v", *listen, err)
	}
	srv.Serve(l)

	// Register with the master.
	status, err := srv.Master().Call(nil, proto.MOpRegister, master.RegisterReq{
		Addr: l.Addr(), Machine: *machine, SSD: *role == "primary", Capacity: store.Capacity(),
	}, nil)
	if err != nil || status != proto.StatusOK {
		log.Fatalf("register with master: %v (%v)", err, status)
	}
	log.Printf("ursa-chunkserver %s (%s on %s) registered with %s",
		l.Addr(), *role, *machine, *masterAddr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	for s := range sig {
		if s == syscall.SIGHUP {
			log.Printf("hot upgrade requested")
			srv.Upgrade()
			continue
		}
		break
	}
	log.Printf("shutting down")
	srv.Close()
}
