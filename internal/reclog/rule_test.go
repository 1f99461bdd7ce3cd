package reclog

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ursa/internal/clock"
	"ursa/internal/srctree"
)

// journalMagic is the magic of the journal's own record header, before
// the journal's framing moved here.
const journalMagic = 0x55525341_4a4f5552 // "URSAJOUR"

// headerCodecs returns where f encodes or decodes a record header of its
// own: a literal of this package's magic or of the journal's old one, as a
// number or as text, and, in package journal, an import of
// encoding/binary — the journal's records are framed here alone.
func headerCodecs(fset *token.FileSet, f *ast.File) []token.Position {
	var at []token.Position
	if f.Name.Name == "journal" {
		for _, imp := range f.Imports {
			if imp.Path.Value == strconv.Quote("encoding/binary") {
				at = append(at, fset.Position(imp.Pos()))
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok {
			return true
		}
		switch lit.Kind {
		case token.INT:
			if v, err := strconv.ParseUint(lit.Value, 0, 64); err == nil && (v == magic || v == journalMagic) {
				at = append(at, fset.Position(lit.Pos()))
			}
		case token.STRING:
			if strings.Contains(lit.Value, "URSARLOG") || strings.Contains(lit.Value, "URSAJOUR") {
				at = append(at, fset.Position(lit.Pos()))
			}
		}
		return true
	})
	return at
}

// TestOnlyReclogFramesRecords holds the tree to one record framing: no
// non-test file outside this package names a record header's magic, and
// the journal imports no encoding/binary. A second log (the chunk server's
// metadata, the master's) is a client of Log, not a fork of its format.
func TestOnlyReclogFramesRecords(t *testing.T) {
	clock.Test(t, func() {
		const sample = `package journal
import "encoding/binary"
const recordMagic = 0x55525341_4a4f5552
const next = 0x55525341524c4f47
var name = "URSARLOG"
func fine() uint64 { return binary.LittleEndian.Uint64(nil) + 0x5552 }`
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "sample.go", sample, 0)
		if err != nil {
			t.Fatal(err)
		}
		var lines []int
		for _, pos := range headerCodecs(fset, f) {
			lines = append(lines, pos.Line)
		}
		if want := []int{2, 3, 4, 5}; !reflect.DeepEqual(lines, want) {
			t.Fatalf("the rule flags sample lines %v, want %v", lines, want)
		}

		root := filepath.Join("..", "..")
		files, err := srctree.Parse(fset, root, false, func(path string, _ bool) bool {
			return path == filepath.Join(root, "internal", "reclog")
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(files) < 50 {
			t.Fatalf("scanned %d files: the walk missed the tree", len(files))
		}
		for _, f := range files {
			for _, pos := range headerCodecs(fset, f) {
				t.Errorf("%s: frames a record header of its own; encode and verify records with internal/reclog", pos)
			}
		}
	})
}
