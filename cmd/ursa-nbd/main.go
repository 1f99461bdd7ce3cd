// Command ursa-nbd is the client portal as a daemon: it opens (creating if
// necessary) a virtual disk on an URSA cluster and exports it over the NBD
// protocol, the interface VMMs attach virtual disks through (§3.1). Any
// NBD initiator — qemu, nbd-client, or this repo's own client — can
// connect.
//
// Usage:
//
//	ursa-nbd -master 127.0.0.1:7000 -vdisk vm1 -size 1073741824 \
//	    -listen 127.0.0.1:10809
package main

import (
	"errors"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"ursa/internal/client"
	"ursa/internal/clock"
	"ursa/internal/master"
	"ursa/internal/nbd"
	"ursa/internal/transport"
	"ursa/internal/util"
)

func main() {
	var (
		masterAddr = flag.String("master", "127.0.0.1:7000", "master address")
		vdisk      = flag.String("vdisk", "vm1", "virtual disk name")
		size       = flag.Int64("size", util.GiB, "size when creating the vdisk")
		stripe     = flag.Int("stripe", 1, "stripe group size")
		listen     = flag.String("listen", "127.0.0.1:10809", "NBD listen address")
		name       = flag.String("client", "", "lease-holder identity (default: host:pid)")
	)
	flag.Parse()

	id := *name
	if id == "" {
		host, _ := os.Hostname()
		id = host + "-nbd"
	}
	cl := client.New(client.Config{
		Name:        id,
		MasterAddrs: []string{*masterAddr},
		Clock:       clock.Realtime,
		Dialer:      transport.TCPDialer{},
	})
	defer cl.Close()

	if _, err := cl.CreateVDisk(master.CreateVDiskReq{
		Name: *vdisk, Size: *size, StripeGroup: *stripe,
	}); err != nil && !errors.Is(err, util.ErrExists) {
		log.Fatalf("create vdisk %q: %v", *vdisk, err)
	}
	vd, err := cl.Open(*vdisk)
	if err != nil {
		log.Fatalf("open vdisk %q: %v", *vdisk, err)
	}
	defer vd.Close()

	srv := nbd.NewServer(nbd.Export{Name: *vdisk, Device: vd})
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listen %s: %v", *listen, err)
	}
	go srv.Serve(ln)
	log.Printf("ursa-nbd exporting %q (%s) on %s",
		*vdisk, util.FormatBytes(vd.Size()), ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down")
	srv.Close()
}
