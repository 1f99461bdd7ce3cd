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

// protoOp reports whether e is proto.Op<Name> or proto.MOp<Name>, and
// returns the name.
func protoOp(e ast.Expr) (string, bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	pkg, ok := sel.X.(*ast.Ident)
	name := sel.Sel.Name
	if !ok || pkg.Name != "proto" || !strings.HasPrefix(name, "Op") && !strings.HasPrefix(name, "MOp") {
		return "", false
	}
	return name, true
}

// parseGo parses the non-test Go files in dir — and below it when deep,
// but for the separately built benchmark module.
func parseGo(t *testing.T, dir string, deep bool) []*ast.File {
	t.Helper()
	files, err := srctree.Parse(token.NewFileSet(), dir, false, func(path string, isDir bool) bool {
		return isDir && (!deep || filepath.Base(path) == "benchmark")
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// opBlock lists, in order, the ops of the proto const block that starts at
// first: OpNop's holds every op below the master range, MOpCreateVDisk's the
// master's.
func opBlock(t *testing.T, first string) []string {
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
		if spec := gd.Specs[0].(*ast.ValueSpec); spec.Names[0].Name != first {
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
	t.Fatalf("proto.go has no const block starting at %s", first)
	return nil
}

// served returns the proto ops the non-test files of dir have a switch case
// for.
func served(t *testing.T, dir string) map[string]bool {
	out := make(map[string]bool)
	for _, f := range parseGo(t, dir, false) {
		cased, _ := opRefs(f)
		for op := range cased {
			out[op] = true
		}
	}
	return out
}

// sent returns the proto ops some non-test file of the module uses other
// than as a case or in a comparison: a message built, a MasterSession.Call
// made.
func sent(t *testing.T) map[string]bool {
	senders := make(map[string]bool)
	for _, f := range parseGo(t, "../..", true) {
		if f.Name.Name == "proto" {
			continue
		}
		_, ops := opRefs(f)
		for op := range ops {
			senders[op] = true
		}
	}
	return senders
}

// TestChunkOpsServedAndSent: every chunk-server op has a case in the chunk
// server's dispatch — the object store's for OpObj* — and a sender in some
// non-test file of the module. An op nothing sends, or nothing serves, is a
// wire command that does nothing.
func TestChunkOpsServedAndSent(t *testing.T) {
	sample, err := parser.ParseFile(token.NewFileSet(), "sample.go", `package x
func f(m *proto.Message) {
	switch m.Op {
	case proto.OpA, proto.MOpB:
	}
	if m.Op == proto.OpC || proto.OpE != m.Op {
	}
	send(&proto.Message{Op: proto.OpD})
	call(proto.MOpF, req)
}`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cased, sent := opRefs(sample); fmt.Sprint(cased, sent) != "map[MOpB:true OpA:true] map[MOpF:true OpD:true]" {
		t.Fatalf("the rule reads cased and sent ops as %v and %v", cased, sent)
	}

	byChunkServer, byObjstore, senders := served(t, "."), served(t, "../objstore"), sent(t)
	ops := opBlock(t, "OpNop")
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

// TestMasterOpsServedAndSent holds the master's ops to the same rule: each
// has a case in the master's dispatch and a sender outside tests — a
// MasterSession.Call by a client, chunk server or daemon, or a master's
// message to another master.
func TestMasterOpsServedAndSent(t *testing.T) {
	byMaster, senders := served(t, "../master"), sent(t)
	ops := opBlock(t, "MOpCreateVDisk")
	if !slices.Contains(ops, "MOpReportFailure") || !slices.Contains(ops, "MOpReplicateLog") {
		t.Fatalf("master ops %v: the parse missed the block", ops)
	}
	for _, op := range ops {
		if !byMaster[op] {
			t.Errorf("proto.%s has no case in the master's dispatch", op)
		}
		if !senders[op] {
			t.Errorf("proto.%s has no sender outside tests", op)
		}
	}
}
