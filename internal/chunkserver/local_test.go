package chunkserver

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/journal"
	"ursa/internal/metrics"
	"ursa/internal/proto"
	"ursa/internal/simdisk"
	"ursa/internal/srctree"
	"ursa/internal/util"
)

// busyDisk always looks busy, which holds the journal replayer off (its idle
// gate): journaled records stay in the journal for the whole test.
type busyDisk struct{ simdisk.Disk }

func (d busyDisk) QueueDepth() int { return d.Disk.QueueDepth() + 1 }

// TestPrimaryWriteOnBackupServerSupersedesJournal makes a backup server the
// chunk's (temporary) primary, as a view change does when no SSD replica
// survives. Its primary-path write (OpWrite) lands through the journal set,
// journaled like any small write on that server: written to the bare store,
// it would sit under the older journaled record of the same extent — reads
// would keep returning the journal's bytes, failing the checksum stamped for
// the new ones, and replay would later put the old bytes back on disk.
func TestPrimaryWriteOnBackupServerSupersedesJournal(t *testing.T) {
	clock.Test(t, func() {
		e, cleanup := newRebuildEnv(t)
		defer cleanup()
		b := e.start("b", true, busyDisk{simdisk.NewSSD(fastSSD(), clock.Realtime)}, 50*time.Millisecond)
		mustCreate(t, b, CreateChunkReq{View: 1})
		older := bytes.Repeat([]byte{0xaa}, 4*util.KiB)
		newer := bytes.Repeat([]byte{0xbb}, 4*util.KiB)
		if st := apply(b, proto.OpReplicate, 0, 0, older); st != proto.StatusOK {
			t.Fatalf("journaled backup write: %s", st)
		}
		if n := b.jset.Pending(); n != 1 {
			t.Fatalf("journal holds %d records, want the one just appended", n)
		}
		if st := apply(b, proto.OpWrite, 1, 0, newer); st != proto.StatusOK {
			t.Fatalf("primary-path write: %s", st)
		}
		r := b.Handle(&proto.Message{
			Op: proto.OpRead, Chunk: testChunk, Off: 0, Length: uint32(len(newer)), View: 1, Version: 2,
		})
		if r.Status != proto.StatusOK || !bytes.Equal(r.Payload, newer) {
			t.Fatalf("read after the primary-path write = %s %#x.., want the written %#x..", r.Status, r.Payload[:min(1, len(r.Payload))], newer[:1])
		}
		bufpool.Put(r.Payload)
	})
}

// TestBypassWriteLandsOnDevice: a backup server whose one journal has died
// takes a journal-sized write on its device — the journal set refuses it
// with ErrQuota, and the server's fallback is the only bypass — and counts
// it as journal-bypass-writes. A write the live journal took counts nothing.
func TestBypassWriteLandsOnDevice(t *testing.T) {
	clock.Test(t, func() {
		clk := clock.Realtime
		reg := metrics.NewRegistry()
		store := blockstore.New(simdisk.NewSSD(fastSSD(), clk), 0)
		jdisk := simdisk.NewFaultInjector(simdisk.NewSSD(fastSSD(), clk), clk)
		jset := journal.NewSet(clk, store, journal.DefaultConfig())
		jset.AddSSDJournal("b-j", jdisk, 0, 64*util.MiB)
		jset.Start()
		b := New(Config{Addr: "b", Clock: clk, Metrics: reg}, store, jset)
		defer b.Close()
		mustCreate(t, b, CreateChunkReq{View: 1})
		bypassed := reg.Counter(journal.MetricBypassWrites)

		journaled := bytes.Repeat([]byte{0xaa}, 4*util.KiB)
		if st := apply(b, proto.OpReplicate, 0, 0, journaled); st != proto.StatusOK {
			t.Fatalf("journaled write: %s", st)
		}
		if n := bypassed.Load(); n != 0 {
			t.Fatalf("a write the journal took counted %d bypass writes", n)
		}

		jdisk.FailWrites(nil)
		direct := bytes.Repeat([]byte{0xbb}, 4*util.KiB)
		if st := apply(b, proto.OpReplicate, 1, 4*util.KiB, direct); st != proto.StatusOK {
			t.Fatalf("write with the journal dead: %s", st)
		}
		if n := bypassed.Load(); n != 1 {
			t.Fatalf("%d bypass writes counted, want 1", n)
		}
		if st := jset.Stats(); st.DeadJournals != 1 {
			t.Fatalf("%d dead journals, want 1", st.DeadJournals)
		}
		got := make([]byte, len(direct))
		if err := store.ReadAt(testChunk, got, 4*util.KiB); err != nil || !bytes.Equal(got, direct) {
			t.Fatalf("the device holds %#x.. (%v), want the bypassed write's %#x..", got[:1], err, direct[:1])
		}
	})
}

// localStorage names data.go's local-storage methods: the only code that
// picks between a server's journal set and its bare store.
var localStorage = map[string]bool{
	"readLocal": true, "writeVersioned": true, "writeLocal": true, "installLocal": true, "dropLocal": true,
}

// deviceMethods are the journal-set and store methods that move a replica's
// bytes.
var deviceMethods = map[string]bool{
	"Append": true, "WriteDirect": true, "Read": true, "ReadAt": true, "WriteAt": true, "Delete": true, "DropChunk": true,
}

// deviceUses lists, as "file:line name", each use in f of a device method on
// a jset or store field (x.jset.M, x.store.M: called or taken as a value) and
// each Sums().Stamp, outside data.go's local-storage methods.
func deviceUses(fset *token.FileSet, f *ast.File) []string {
	inData := filepath.Base(fset.Position(f.Pos()).Filename) == "data.go"
	var out []string
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && inData && localStorage[fn.Name.Name] {
			continue
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			hit := false
			switch x := sel.X.(type) {
			case *ast.SelectorExpr:
				hit = (x.Sel.Name == "jset" || x.Sel.Name == "store") && deviceMethods[sel.Sel.Name]
			case *ast.CallExpr:
				fun, ok := x.Fun.(*ast.SelectorExpr)
				hit = ok && fun.Sel.Name == "Sums" && sel.Sel.Name == "Stamp"
			}
			if hit {
				pos := fset.Position(sel.Pos())
				out = append(out, fmt.Sprintf("%s:%d %s", filepath.Base(pos.Filename), pos.Line, sel.Sel.Name))
			}
			return true
		})
	}
	return out
}

// TestOnlyLocalStorageTouchesDevices: outside data.go's local-storage
// methods no non-test file of the package reads, writes or drops a replica's
// bytes on its journal set or store, or stamps checksums. A second chooser
// between journal and device is how a backup server acting as a temporary
// primary once buried its write under an older journal record (see
// TestPrimaryWriteOnBackupServerSupersedesJournal), and a second stamp is
// one more place a write can land unstamped.
func TestOnlyLocalStorageTouchesDevices(t *testing.T) {
	clock.Test(t, func() {
		const sample = `package chunkserver
func (s *Server) writeLocal() { s.store.WriteAt(nil, 0) }
func f(s *Server) {
	s.jset.Append(nil, 1, 0, nil, 1)
	read := s.store.ReadAt
	s.store.Sums().Stamp(1, 0, nil)
	s.store.Sums().Verify(1, 0, nil)
	s.store.CreateSized(1, 2)
	s.jset.DevicesBusy()
}`
		for file, want := range map[string]string{
			"data.go":  "[data.go:4 Append data.go:5 ReadAt data.go:6 Stamp]",
			"apply.go": "[apply.go:2 WriteAt apply.go:4 Append apply.go:5 ReadAt apply.go:6 Stamp]",
		} {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, file, sample, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(deviceUses(fset, f)); got != want {
				t.Fatalf("the rule reads the sample as %s as %s, want %s", file, got, want)
			}
		}

		fset := token.NewFileSet()
		files, err := srctree.Parse(fset, ".", false, func(_ string, dir bool) bool { return dir })
		if err != nil {
			t.Fatal(err)
		}
		if len(files) < 10 {
			t.Fatalf("%d files parsed: the walk missed the package", len(files))
		}
		for _, f := range files {
			for _, u := range deviceUses(fset, f) {
				t.Errorf("%s: outside data.go's local-storage methods", u)
			}
		}
	})
}
