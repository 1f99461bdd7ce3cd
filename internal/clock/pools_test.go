package clock

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"testing"

	"ursa/internal/srctree"
)

// pooledWaits names, as pkg.var, every package-level sync.Pool literal in f
// whose New makes a channel or a time.Timer. Such a pool hands its channel
// or timer from one cluster, test or synctest bubble to the next.
func pooledWaits(f *ast.File) []string {
	var out []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, v := range vs.Values {
				lit, ok := v.(*ast.CompositeLit)
				if !ok || !isSel(lit.Type, "sync", "Pool") {
					continue
				}
				for _, elt := range lit.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if ok && isIdent(kv.Key, "New") && makesWait(kv.Value) {
						out = append(out, f.Name.Name+"."+vs.Names[i].Name)
					}
				}
			}
		}
	}
	return out
}

// makesWait reports whether n contains make(chan …), time.NewTimer or
// time.AfterFunc.
func makesWait(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if isIdent(call.Fun, "make") && len(call.Args) > 0 {
			if _, ok := call.Args[0].(*ast.ChanType); ok {
				found = true
			}
		}
		if isSel(call.Fun, "time", "NewTimer") || isSel(call.Fun, "time", "AfterFunc") {
			found = true
		}
		return !found
	})
	return found
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

func isSel(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && isIdent(sel.X, pkg) && sel.Sel.Name == name
}

// TestPooledWaitsInventory keeps the tree free of package-level pools that
// recycle a channel or a timer across owners: such a pool hands a wait made
// in one cluster, test or synctest bubble to the next, where it stalls the
// bubble's clock. Every wait belongs to its owner — the HDD's lock, the
// journal record, the chunk's state, the Peers or Client that begins a
// flight. The rule is first run on a sample of what it must and must not
// catch.
func TestPooledWaitsInventory(t *testing.T) {
	const sample = `package x
var a = sync.Pool{New: func() any { return &req{done: make(chan struct{}, 1)} }}
var b = sync.Pool{New: func() any { t := time.NewTimer(time.Hour); t.Stop(); return t }}
var c = sync.Pool{New: func() any { return new(scratch) }} // make(chan int) in a comment
var d = make(chan int)
var e, f = 1, sync.Pool{New: func() any { return []chan int{} }}
func g() { _ = sync.Pool{New: func() any { return make(chan int) }} }`
	f, err := parser.ParseFile(token.NewFileSet(), "sample.go", sample, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := pooledWaits(f); !slices.Equal(got, []string{"x.a", "x.b"}) {
		t.Fatalf("the rule finds %v in the sample, want [x.a x.b]", got)
	}

	var want []string
	files, err := srctree.Parse(token.NewFileSet(), filepath.Join("..", ".."), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 50 {
		t.Fatalf("scanned %d files: the walk missed the tree", len(files))
	}
	var got []string
	for _, f := range files {
		got = append(got, pooledWaits(f)...)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("pools recycling a channel or timer: %v\nwant none: give the wait to the object that owns it instead", got)
	}
}
