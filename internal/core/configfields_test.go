package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ursa/internal/chunkserver"
	"ursa/internal/client"
	"ursa/internal/clock"
	"ursa/internal/journal"
	"ursa/internal/master"
	"ursa/internal/srctree"
)

// configStructs are the settings of a deployment: the cluster's options and
// the config of each piece it is built from.
var configStructs = []reflect.Type{
	reflect.TypeOf(Options{}),
	reflect.TypeOf(chunkserver.Config{}),
	reflect.TypeOf(client.Config{}),
	reflect.TypeOf(master.Config{}),
	reflect.TypeOf(journal.Config{}),
}

// callerless lists the config fields no program sets, each with the reason it
// stays a field.
var callerless = map[string]string{
	"ursa/internal/core.Options.IOTimeout": "no other setting sets a client's budget apart from its " +
		"per-call timeout: TestWriteDeadlinePropagation needs a 300 ms budget under a 10 s CallTimeout, " +
		"TestChaosECHolderDiskDeath a 30 s one so that a whole-stripe rebuild fits",
}

// resolver names the types of a file's expressions as "importpath.Type",
// as far as the file itself says: enough to tell a variable of a config
// struct from anything else with a field of the same name.
type resolver struct {
	pkg     string            // the file's import path
	imports map[string]string // local name -> import path
	funcs   map[string]string // importpath.Func -> the type it returns
}

func newResolver(pkg string, f *ast.File, funcs map[string]string) *resolver {
	r := &resolver{pkg: pkg, imports: make(map[string]string), funcs: funcs}
	for _, is := range f.Imports {
		p, _ := strconv.Unquote(is.Path.Value)
		name := path.Base(p)
		if is.Name != nil {
			name = is.Name.Name
		}
		r.imports[name] = p
	}
	return r
}

// typeName resolves a type expression, or a function's name.
func (r *resolver) typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return r.typeName(e.X)
	case *ast.Ident:
		return r.pkg + "." + e.Name
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok && r.imports[x.Name] != "" {
			return r.imports[x.Name] + "." + e.Sel.Name
		}
	}
	return ""
}

// typeOf resolves the struct type of a value expression: a literal, a call
// of a function in funcs, or a variable whose declaration gives its type — a
// parameter or var of it, or a := from one of the former. A pointer counts as
// what it points at; anything else is "".
func (r *resolver) typeOf(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return r.typeOf(e.X)
	case *ast.StarExpr:
		return r.typeOf(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return r.typeOf(e.X)
		}
	case *ast.CompositeLit:
		return r.typeName(e.Type)
	case *ast.CallExpr:
		return r.funcs[r.typeName(e.Fun)]
	case *ast.Ident:
		if e.Obj == nil {
			return ""
		}
		switch d := e.Obj.Decl.(type) {
		case *ast.Field:
			return r.typeName(d.Type)
		case *ast.ValueSpec:
			if d.Type != nil {
				return r.typeName(d.Type)
			}
			if i := slices.IndexFunc(d.Names, func(n *ast.Ident) bool { return n.Name == e.Name }); i >= 0 && i < len(d.Values) {
				return r.typeOf(d.Values[i])
			}
		case *ast.AssignStmt:
			i := slices.IndexFunc(d.Lhs, func(l ast.Expr) bool { id, ok := l.(*ast.Ident); return ok && id.Name == e.Name })
			if i >= 0 && len(d.Lhs) == len(d.Rhs) {
				return r.typeOf(d.Rhs[i])
			}
		}
	}
	return ""
}

// returnsTarget records in funcs every plain function of f whose one result
// is a struct in targets, or a pointer to one.
func returnsTarget(pkg string, f *ast.File, targets map[string]bool, funcs map[string]string) {
	r := newResolver(pkg, f, nil)
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv != nil || fd.Type.Results == nil || len(fd.Type.Results.List) != 1 {
			continue
		}
		if t := r.typeName(fd.Type.Results.List[0].Type); targets[t] {
			funcs[pkg+"."+fd.Name.Name] = t
		}
	}
}

// fieldWrites names, as "importpath.Type.Field", every field of a struct in
// targets that f sets: as a key of a composite literal of the type, or on
// the left of an assignment or ++/-- through a value typeOf resolves to it.
func fieldWrites(pkg string, f *ast.File, targets map[string]bool, funcs map[string]string) []string {
	r := newResolver(pkg, f, funcs)
	var out []string
	set := func(x ast.Expr) {
		if sel, ok := x.(*ast.SelectorExpr); ok {
			if t := r.typeOf(sel.X); targets[t] {
				out = append(out, t+"."+sel.Sel.Name)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if t := r.typeName(n.Type); targets[t] {
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						out = append(out, t+"."+kv.Key.(*ast.Ident).Name)
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, l := range n.Lhs {
					set(l)
				}
			}
		case *ast.IncDecStmt:
			set(n.X)
		}
		return true
	})
	return out
}

// TestConfigFieldsHaveACaller: every field of a deployment's config is set by
// some program — a non-test file outside the package that declares it: a
// daemon, the cluster assembly, a figure, the benchmark, an example. A
// setting that only tests change makes the tests run a system nobody ships;
// it becomes a constant instead, or sits on the callerless list with its
// reason. The rule is first run on a sample of what it must and must not
// catch.
func TestConfigFieldsHaveACaller(t *testing.T) {
	clock.Test(t, func() {
		const sample = `package x
import (
	"ursa/internal/client"
	"ursa/internal/journal"
	"ursa/internal/master"
	"ursa/internal/scrub"
)
func defaults() journal.Config { return journal.Config{Metrics: nil} }
func build(cfg *master.Config, n int) {
	a := journal.DefaultConfig()
	a.PollInterval = 1
	b := defaults()
	b.IdleGrace++
	var c master.Config
	c.Peers, c.Addr = nil, ""
	cfg.Replication = n
	d := &client.Config{Name: "d"}
	d.CallTimeout = 2
	e := scrub.Config{IdleGrace: 3}
	e.Poll = 4
	var f struct{ LeaseTTL int }
	f.LeaseTTL = 5
	g := h()
	g.MaxRetries = 6
}`
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "sample.go", sample, 0)
		if err != nil {
			t.Fatal(err)
		}
		targets := make(map[string]bool)
		for _, typ := range configStructs {
			targets[typ.PkgPath()+"."+typ.Name()] = true
		}
		funcs := map[string]string{"ursa/internal/journal.DefaultConfig": "ursa/internal/journal.Config"}
		returnsTarget("ursa/x", f, targets, funcs)
		got := fieldWrites("ursa/x", f, targets, funcs)
		for i := range got {
			got[i] = strings.TrimPrefix(got[i], "ursa/internal/")
		}
		want := []string{"journal.Config.Metrics", "journal.Config.PollInterval", "journal.Config.IdleGrace",
			"master.Config.Peers", "master.Config.Addr", "master.Config.Replication", "client.Config.Name",
			"client.Config.CallTimeout"}
		if !slices.Equal(got, want) {
			t.Fatalf("the rule finds %v in the sample, want %v", got, want)
		}

		type srcFile struct {
			pkg string
			f   *ast.File
		}
		root := filepath.Join("..", "..")
		parsed, err := srctree.Parse(fset, root, false, func(p string, dir bool) bool { return dir && filepath.Base(p) == "testdata" })
		if err != nil {
			t.Fatal(err)
		}
		if len(parsed) < 100 {
			t.Fatalf("parsed %d files: the walk missed the tree", len(parsed))
		}
		var files []srcFile
		for _, f := range parsed {
			rel, err := filepath.Rel(root, filepath.Dir(fset.File(f.Pos()).Name()))
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, srcFile{"ursa/" + filepath.ToSlash(rel), f})
		}
		funcs = make(map[string]string)
		for _, sf := range files {
			returnsTarget(sf.pkg, sf.f, targets, funcs)
		}
		set := make(map[string]bool)
		for _, sf := range files {
			for _, w := range fieldWrites(sf.pkg, sf.f, targets, funcs) {
				if !strings.HasPrefix(w, sf.pkg+".") { // a package filling its own defaults is no caller
					set[w] = true
				}
			}
		}
		var missing []string
		fields := make(map[string]bool)
		for _, typ := range configStructs {
			for i := 0; i < typ.NumField(); i++ {
				name := typ.PkgPath() + "." + typ.Name() + "." + typ.Field(i).Name
				fields[name] = true
				_, allowed := callerless[name]
				switch {
				case set[name] && allowed:
					t.Errorf("%s is on the callerless list, but a program sets it: take it off", name)
				case !set[name] && !allowed:
					missing = append(missing, strings.TrimPrefix(name, "ursa/internal/"))
				}
			}
		}
		for name := range callerless {
			if !fields[name] {
				t.Errorf("the callerless list names %s, which is no config field", name)
			}
		}
		if len(missing) > 0 {
			t.Errorf("config fields only tests set: %v\nmake each a constant, or give it a caller", missing)
		}
	})
}
