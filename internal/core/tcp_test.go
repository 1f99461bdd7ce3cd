package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/chunkserver"
	"ursa/internal/client"
	"ursa/internal/clock"
	"ursa/internal/master"
	"ursa/internal/simdisk"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// TestRealTCPDeployment assembles the same topology the cmd/ daemons
// create — master, primary and backup chunk servers, client — over real
// TCP sockets, proving the wire path end to end (the in-proc fabric is
// bypassed entirely).
func TestRealTCPDeployment(t *testing.T) {
	clk := clock.Realtime
	dialer := transport.TCPDialer{}

	// Master.
	ml, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := master.New(master.Config{
		Addr: ml.Addr(), Clock: clk, Dialer: dialer,
		HybridMode: true, RPCTimeout: 2 * time.Second,
	})
	m.Serve(ml)
	defer m.Close()

	// Three machines, each one primary (SSD) and one backup (HDD+journal).
	for i := 0; i < 3; i++ {
		machine := fmt.Sprintf("m%d", i)

		pl, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		pstore := blockstore.New(simdisk.NewSSD(fastSSDModel(), clk), 0)
		p := chunkserver.New(chunkserver.Config{
			Addr:  pl.Addr(),
			Clock: clk, Dialer: dialer, ReplTimeout: time.Second,
			MasterAddrs: []string{ml.Addr()},
		}, pstore, nil)
		p.Serve(pl)
		defer p.Close()
		m.AddServer(pl.Addr(), machine, true, pstore.Capacity())

		bl, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		// The daemon's backup: NewBackup's layout with the overflow journal
		// on, behind a journal SSD of its own.
		bstore, jset, _ := NewBackup(clk, bl.Addr(), simdisk.NewHDD(fastHDDModel(), clk),
			simdisk.NewSSD(fastSSDModel(), clk), 0, 64*util.MiB, true, nil)
		b := chunkserver.New(chunkserver.Config{
			Addr:  bl.Addr(),
			Clock: clk, Dialer: dialer, ReplTimeout: time.Second,
			MasterAddrs: []string{ml.Addr()},
		}, bstore, jset)
		b.Serve(bl)
		defer b.Close()
		m.AddServer(bl.Addr(), machine, false, bstore.Capacity())
	}

	// Client over TCP.
	cl := client.New(client.Config{
		Name: "tcp-test", MasterAddrs: []string{ml.Addr()},
		Clock: clk, Dialer: dialer, CallTimeout: 2 * time.Second,
	})
	defer cl.Close()

	if _, err := cl.CreateVDisk(master.CreateVDiskReq{Name: "d", Size: 128 * util.MiB}); err != nil {
		t.Fatal(err)
	}
	vd, err := cl.Open("d")
	if err != nil {
		t.Fatal(err)
	}
	defer vd.Close()

	// Small (journal) and large (bypass) writes over the real wire.
	small := make([]byte, 4*util.KiB)
	large := make([]byte, 256*util.KiB)
	util.NewRand(1).Fill(small)
	util.NewRand(2).Fill(large)
	if err := vd.WriteAt(small, 0); err != nil {
		t.Fatal(err)
	}
	if err := vd.WriteAt(large, util.MiB); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(small))
	if err := vd.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, small) {
		t.Error("small write round trip over TCP mismatch")
	}
	got2 := make([]byte, len(large))
	if err := vd.ReadAt(got2, util.MiB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, large) {
		t.Error("large write round trip over TCP mismatch")
	}
}
