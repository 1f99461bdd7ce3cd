package metrics

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"testing"

	"ursa/internal/srctree"
)

// registryNilGuards lists the if statements of f that test a metrics
// registry against nil, other than to default it. A registry is reached
//   - through a selector or variable named Metrics or reg (s.cfg.Metrics,
//     f.reg, reg),
//   - through a parameter declared *metrics.Registry, or
//   - through a variable bound, in the same function, from one of those
//     (if m := s.cfg.Metrics; m != nil).
//
// `if R == nil { R = … }` defaults R and is allowed. The rule is syntactic —
// names, not types — so a registry passed under another name escapes it.
func registryNilGuards(fset *token.FileSet, f *ast.File) []token.Position {
	var alias map[string]bool // per function: variables bound from a registry
	isReg := func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name == "reg" || x.Name == "Metrics" || alias[x.Name]
		case *ast.SelectorExpr:
			return x.Sel.Name == "reg" || x.Sel.Name == "Metrics"
		}
		return false
	}
	isRegistryType := func(e ast.Expr) bool {
		star, ok := e.(*ast.StarExpr)
		if !ok {
			return false
		}
		switch x := star.X.(type) {
		case *ast.Ident:
			return x.Name == "Registry"
		case *ast.SelectorExpr:
			id, ok := x.X.(*ast.Ident)
			return ok && id.Name == "metrics" && x.Sel.Name == "Registry"
		}
		return false
	}
	bindParams := func(ft *ast.FuncType) {
		if ft.Params == nil {
			return
		}
		for _, field := range ft.Params.List {
			for _, name := range field.Names {
				alias[name.Name] = isRegistryType(field.Type)
			}
		}
	}
	bind := func(as *ast.AssignStmt) {
		for i, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" && len(as.Rhs) == len(as.Lhs) {
				alias[id.Name] = isReg(as.Rhs[i])
			}
		}
	}
	// defaults reports whether body assigns to the expression r.
	defaults := func(body *ast.BlockStmt, r ast.Expr) bool {
		for _, st := range body.List {
			if as, ok := st.(*ast.AssignStmt); ok {
				for _, lhs := range as.Lhs {
					if types.ExprString(lhs) == types.ExprString(r) {
						return true
					}
				}
			}
		}
		return false
	}
	var out []token.Position
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			alias = map[string]bool{}
			bindParams(x.Type)
		case *ast.FuncLit:
			bindParams(x.Type)
		case *ast.AssignStmt:
			bind(x)
		case *ast.IfStmt:
			if as, ok := x.Init.(*ast.AssignStmt); ok {
				bind(as)
			}
			guard := false
			ast.Inspect(x.Cond, func(n ast.Node) bool {
				cmp, ok := n.(*ast.BinaryExpr)
				if !ok || cmp.Op != token.EQL && cmp.Op != token.NEQ {
					return true
				}
				for _, pair := range [][2]ast.Expr{{cmp.X, cmp.Y}, {cmp.Y, cmp.X}} {
					if id, ok := pair[1].(*ast.Ident); ok && id.Name == "nil" && isReg(pair[0]) &&
						!(cmp.Op == token.EQL && defaults(x.Body, pair[0])) {
						guard = true
					}
				}
				return true
			})
			if guard {
				out = append(out, fset.Position(x.Pos()))
			}
		}
		return true
	})
	return out
}

// TestNoRegistryNilGuards: no non-test file under internal/ outside
// internal/bench tests a metrics registry against nil except to default it.
// A piece built without a registry records into one of its own (the configs'
// fillDefaults, journal.NewSet, transport.NewMasterSession,
// simdisk.NewFaultInjector, objstore.New), so a guard is a second code path
// that nothing runs. The rule is first run on a sample of what it must and
// must not catch.
func TestNoRegistryNilGuards(t *testing.T) {
	const sample = `package x
func (s *Server) bad(reg, sink *metrics.Registry, n int) {
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Counter("a").Inc()
	}
	if m := s.cfg.Metrics; m != nil && n > 0 {
	}
	if reg != nil {
	}
	r := s.reg
	if n > 0 || r == nil {
		return
	}
	if sink == nil {
		s.cfg.Metrics = sink
	}
	go func(own *Registry) {
		if own != nil {
		}
	}(nil)
}
func (c *Config) fine(other *Thing, sink *metrics.Registry) {
	if c.Metrics == nil {
		c.Metrics = NewRegistry()
	}
	if sink == nil {
		sink = c.Metrics
	}
	if other != nil {
	}
	m := c.Clock
	if m != nil && c.Replication == 0 {
	}
}`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "sample.go", sample, 0)
	if err != nil {
		t.Fatal(err)
	}
	var lines []int
	for _, pos := range registryNilGuards(fset, f) {
		lines = append(lines, pos.Line)
	}
	if want := []int{3, 6, 8, 11, 14, 18}; !reflect.DeepEqual(lines, want) {
		t.Fatalf("the rule flags sample lines %v, want %v", lines, want)
	}

	root := ".."
	files, err := srctree.Parse(fset, root, func(path string, _ bool) bool { return path == filepath.Join(root, "bench") })
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 50 {
		t.Fatalf("scanned %d files: the walk missed the tree", len(files))
	}
	for _, f := range files {
		for _, pos := range registryNilGuards(fset, f) {
			t.Errorf("%s: tests a metrics registry against nil; default it where the piece is built instead", pos)
		}
	}
}
