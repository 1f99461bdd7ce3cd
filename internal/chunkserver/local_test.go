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

	"ursa/internal/bufpool"
	"ursa/internal/clock"
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
	e := newRebuildEnv(t)
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
}
