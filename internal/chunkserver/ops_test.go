package chunkserver

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ursa/internal/srctree"
)

// opRefs returns the proto.Op* names f uses: cased, in the list of a switch
// case; sent, anywhere else but an == or != comparison.
func opRefs(f *ast.File) (cased, sent map[string]bool) {
	cased, sent = make(map[string]bool), make(map[string]bool)
	skip := make(map[ast.Expr]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CaseClause:
			for _, e := range n.List {
				if name, ok := protoOp(e); ok {
					cased[name] = true
					skip[e] = true
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				skip[n.X], skip[n.Y] = true, true
			}
		case *ast.SelectorExpr:
			if name, ok := protoOp(n); ok && !skip[n] {
				sent[name] = true
			}
		}
		return true
	})
	return cased, sent
}

// protoOp reports whether e is proto.Op<Name>, and returns the name.
func protoOp(e ast.Expr) (string, bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || pkg.Name != "proto" || !strings.HasPrefix(sel.Sel.Name, "Op") {
		return "", false
	}
	return sel.Sel.Name, true
}

// parseGo parses the non-test Go files in dir — and below it when deep,
// but for the separately built benchmark module.
func parseGo(t *testing.T, dir string, deep bool) []*ast.File {
	t.Helper()
	files, err := srctree.Parse(token.NewFileSet(), dir, func(path string, isDir bool) bool {
		return isDir && (!deep || filepath.Base(path) == "benchmark")
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// chunkServerOps lists, in order, the ops of the proto const block that
// starts at OpNop: every op below the master range.
func chunkServerOps(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "../proto/proto.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST || len(gd.Specs) == 0 {
			continue
		}
		if first := gd.Specs[0].(*ast.ValueSpec); first.Names[0].Name != "OpNop" {
			continue
		}
		var ops []string
		for _, spec := range gd.Specs {
			for _, n := range spec.(*ast.ValueSpec).Names {
				ops = append(ops, n.Name)
			}
		}
		return ops
	}
	t.Fatal("proto.go has no const block starting at OpNop")
	return nil
}

// TestChunkOpsServedAndSent: every chunk-server op has a case in the chunk
// server's dispatch — the object store's for OpObj* — and a sender in some
// non-test file of the module. An op nothing sends, or nothing serves, is a
// wire command that does nothing.
func TestChunkOpsServedAndSent(t *testing.T) {
	sample, err := parser.ParseFile(token.NewFileSet(), "sample.go", `package x
func f(m *proto.Message) {
	switch m.Op {
	case proto.OpA, proto.OpB:
	}
	if m.Op == proto.OpC || proto.OpE != m.Op {
	}
	send(&proto.Message{Op: proto.OpD})
}`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cased, sent := opRefs(sample); fmt.Sprint(cased, sent) != "map[OpA:true OpB:true] map[OpD:true]" {
		t.Fatalf("the rule reads cased and sent ops as %v and %v", cased, sent)
	}

	served := func(dir string) map[string]bool {
		out := make(map[string]bool)
		for _, f := range parseGo(t, dir, false) {
			cased, _ := opRefs(f)
			for op := range cased {
				out[op] = true
			}
		}
		return out
	}
	byChunkServer, byObjstore := served("."), served("../objstore")
	senders := make(map[string]bool)
	for _, f := range parseGo(t, "../..", true) {
		if f.Name.Name == "proto" {
			continue
		}
		_, sent := opRefs(f)
		for op := range sent {
			senders[op] = true
		}
	}
	ops := chunkServerOps(t)
	if !slices.Contains(ops, "OpRead") || !slices.Contains(ops, "OpObjGet") {
		t.Fatalf("read ops %v: the parse missed the block", ops)
	}
	for _, op := range ops {
		serving := byChunkServer
		if strings.HasPrefix(op, "OpObj") {
			serving = byObjstore
		}
		if !serving[op] {
			t.Errorf("proto.%s has no case in its server's dispatch", op)
		}
		if !senders[op] {
			t.Errorf("proto.%s has no sender outside tests", op)
		}
	}
}
