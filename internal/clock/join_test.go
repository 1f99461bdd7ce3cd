package clock

import (
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ursa/internal/srctree"
)

// TestJoinWaitsForWhatFStarted: Join returns nil once the goroutine f
// started has exited, and not before — f itself returns at once.
func TestJoinWaitsForWhatFStarted(t *testing.T) {
	var exited atomic.Bool
	start := time.Now()
	if err := Join(func() {
		go func() {
			time.Sleep(20 * time.Millisecond)
			exited.Store(true)
		}()
	}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); !exited.Load() || took < 20*time.Millisecond {
		t.Fatalf("Join returned after %v, goroutine exited: %v", took, exited.Load())
	}
}

// TestJoinOutwaitsAnOlderGoroutinesExit: a goroutine alive when Join began
// exits while the one f started still sleeps, so the goroutine count is back
// at its entry value early. Join must still wait for f's goroutine.
func TestJoinOutwaitsAnOlderGoroutinesExit(t *testing.T) {
	release, older := make(chan struct{}), make(chan struct{})
	go func() { <-release; close(older) }()
	var exited atomic.Bool
	if err := Join(func() {
		n := runtime.NumGoroutine()
		go func() {
			time.Sleep(100 * time.Millisecond)
			exited.Store(true)
		}()
		close(release)
		<-older
		for runtime.NumGoroutine() > n { // the older goroutine has exited
			time.Sleep(time.Millisecond)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !exited.Load() {
		t.Fatal("Join returned while the goroutine f started still ran")
	}
}

// joinRuleBreaks names, as file:line, every call of runtime.NumGoroutine
// outside internal/clock, every import of testing/synctest by a non-test
// file other than clock's tagged Run, and every Cleanup call inside a
// function passed to clock.Test. path is f's file, relative to the module
// root.
func joinRuleBreaks(fset *token.FileSet, path string, f *ast.File) []string {
	var out []string
	at := func(n ast.Node) string { return path + ":" + strconv.Itoa(fset.Position(n.Pos()).Line) }
	for _, imp := range f.Imports {
		if imp.Path.Value == `"testing/synctest"` && !strings.HasSuffix(path, "_test.go") && path != "internal/clock/run_synctest.go" {
			out = append(out, at(imp))
		}
	}
	if filepath.Dir(path) == "internal/clock" {
		return out
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isSel(call.Fun, "runtime", "NumGoroutine") {
			out = append(out, at(call))
		}
		if isSel(call.Fun, "clock", "Test") && len(call.Args) == 2 {
			ast.Inspect(call.Args[1], func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok {
					if sel, ok := c.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Cleanup" {
						out = append(out, at(c))
					}
				}
				return true
			})
		}
		return true
	})
	return out
}

// TestOneJoinRule keeps "a run is over when every goroutine it started has
// exited" in one place: only internal/clock counts goroutines (Join), and
// only its tagged Run opens a synctest bubble outside a test. A hand-rolled
// poll of the process's goroutine count beside a bubble spends its deadline
// in virtual time while a goroutine outside the bubble is still exiting. A
// test body run by clock.Test closes what it opened with a defer: a
// t.Cleanup would run after the bubble has gone, so clock.Test's join finds
// what it was to close still running. The rule is first run on a sample of
// what it must and must not catch.
func TestOneJoinRule(t *testing.T) {
	const sample = `package x
import "testing/synctest"
func a() int { return runtime.NumGoroutine() }
func b() { synctest.Run(func() {}); _ = runtime.NumCPU() }
func c(t *testing.T) { clock.Test(t, func() { defer t.Cleanup(nil) }); t.Cleanup(nil) }`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "sample.go", sample, 0)
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string][]string{
		"internal/x/x.go":                {"internal/x/x.go:2", "internal/x/x.go:3", "internal/x/x.go:5"},
		"internal/x/x_test.go":           {"internal/x/x_test.go:3", "internal/x/x_test.go:5"},
		"internal/clock/x.go":            {"internal/clock/x.go:2"},
		"internal/clock/run_synctest.go": nil,
	} {
		if got := joinRuleBreaks(fset, path, f); !slices.Equal(got, want) {
			t.Fatalf("the rule finds %v in the sample as %s, want %v", got, path, want)
		}
	}

	eachFile(t, true, func(fset *token.FileSet, path string, f *ast.File) {
		for _, at := range joinRuleBreaks(fset, path, f) {
			t.Errorf("%s: counts goroutines or opens a bubble outside internal/clock, or registers a cleanup in a clock.Test body: join through clock.Join or clock.Run, and defer the close", at)
		}
	})
}

// goStarters are the packages whose non-test files start goroutines only in
// the functions named, each with one go statement. The storage core runs on
// its callers' goroutines: the journal set's replayer, which Close joins, is
// its one goroutine of its own.
var goStarters = map[string][]string{
	"internal/jindex":      nil,
	"internal/reclog":      nil,
	"internal/blockstore":  nil,
	"internal/chunkserver": nil,
	"internal/journal":     {"Set.Start"},
}

// goStatements names every go statement in f as its file:line and the
// function it is in (Type.Method for a method). path is f's file, relative
// to the module root.
func goStatements(fset *token.FileSet, path string, f *ast.File) (at, in []string) {
	for _, d := range f.Decls {
		fn := "package scope"
		if fd, ok := d.(*ast.FuncDecl); ok {
			fn = fd.Name.Name
			if fd.Recv != nil {
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					fn = id.Name + "." + fn
				}
			}
		}
		ast.Inspect(d, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				at = append(at, path+":"+strconv.Itoa(fset.Position(g.Pos()).Line))
				in = append(in, fn)
			}
			return true
		})
	}
	return at, in
}

// goRuleBreaks names, as file:line, every go statement of the non-test
// files given (path to syntax) that goStarters does not allow, and every
// allowed starter that does not start exactly one goroutine.
func goRuleBreaks(fset *token.FileSet, files map[string]*ast.File) []string {
	var out []string
	starts := map[string]int{}
	for _, path := range slices.Sorted(maps.Keys(files)) {
		allowed, ok := goStarters[filepath.Dir(path)]
		if !ok || strings.HasSuffix(path, "_test.go") {
			continue
		}
		at, in := goStatements(fset, path, files[path])
		for i := range at {
			if fn := filepath.Dir(path) + " " + in[i]; slices.Contains(allowed, in[i]) && starts[fn] == 0 {
				starts[fn]++
			} else {
				out = append(out, at[i]+" in "+in[i])
			}
		}
	}
	for _, dir := range slices.Sorted(maps.Keys(goStarters)) {
		for _, fn := range goStarters[dir] {
			if starts[dir+" "+fn] != 1 {
				out = append(out, dir+": "+fn+" starts no goroutine")
			}
		}
	}
	return out
}

// TestGoStatementRule keeps the storage core free of goroutines nobody
// joins: jindex, reclog, blockstore and the chunk server start none, and
// the journal set starts one, its replayer, in Set.Start. A goroutine a
// package starts on its own is one a Close must join and a bubble must see
// exit (DESIGN.md "The wait rule"). The rule is first run on a sample of
// what it must and must not catch.
func TestGoStatementRule(t *testing.T) {
	const sample = `package x
func (s *Set) Start() { go s.loop() }
func (s Set) Close() { go func() { go s.loop() }() }
var _ = func() { go f() }`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "sample.go", sample, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		paths []string
		want  []string
	}{
		{[]string{"internal/journal/x.go"}, []string{"internal/journal/x.go:3 in Set.Close", "internal/journal/x.go:3 in Set.Close", "internal/journal/x.go:4 in package scope"}},
		{[]string{"internal/journal/x.go", "internal/journal/y.go"}, []string{"internal/journal/x.go:3 in Set.Close", "internal/journal/x.go:3 in Set.Close", "internal/journal/x.go:4 in package scope",
			"internal/journal/y.go:2 in Set.Start", "internal/journal/y.go:3 in Set.Close", "internal/journal/y.go:3 in Set.Close", "internal/journal/y.go:4 in package scope"}},
		{[]string{"internal/jindex/x.go"}, []string{"internal/jindex/x.go:2 in Set.Start", "internal/jindex/x.go:3 in Set.Close", "internal/jindex/x.go:3 in Set.Close", "internal/jindex/x.go:4 in package scope", "internal/journal: Set.Start starts no goroutine"}},
		{[]string{"internal/jindex/x_test.go", "internal/master/x.go"}, []string{"internal/journal: Set.Start starts no goroutine"}},
	} {
		files := map[string]*ast.File{}
		for _, p := range c.paths {
			files[p] = f
		}
		if got := goRuleBreaks(fset, files); !slices.Equal(got, c.want) {
			t.Fatalf("the rule finds %q in the sample as %v, want %q", got, c.paths, c.want)
		}
	}

	files := map[string]*ast.File{}
	var tree *token.FileSet
	eachFile(t, false, func(fset *token.FileSet, path string, f *ast.File) { tree, files[path] = fset, f })
	for _, at := range goRuleBreaks(tree, files) {
		t.Errorf("%s: the storage core starts goroutines only in journal.Set.Start, which Close joins", at)
	}
}

// eachFile parses the module's Go files, its tests too when tests is set,
// and calls visit with each one and its path, relative to the module root.
func eachFile(t *testing.T, tests bool, visit func(fset *token.FileSet, path string, f *ast.File)) {
	t.Helper()
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	files, err := srctree.Parse(fset, root, tests, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 100 {
		t.Fatalf("scanned %d files: the walk missed the tree", len(files))
	}
	for _, f := range files {
		path, err := filepath.Rel(root, fset.Position(f.Pos()).Filename)
		if err != nil {
			t.Fatal(err)
		}
		visit(fset, filepath.ToSlash(path), f)
	}
}

// wallWaits names, as file:line, every call of time.Sleep, time.After,
// time.Tick or time.NewTicker in f when f is a non-test file under internal/
// outside internal/clock and internal/bench. path is f's file, relative to
// the module root.
func wallWaits(fset *token.FileSet, path string, f *ast.File) []string {
	if !strings.HasPrefix(path, "internal/") || strings.HasSuffix(path, "_test.go") ||
		strings.HasPrefix(path, "internal/clock/") || strings.HasPrefix(path, "internal/bench/") {
		return nil
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, name := range []string{"Sleep", "After", "Tick", "NewTicker"} {
			if isSel(call.Fun, "time", name) {
				out = append(out, path+":"+strconv.Itoa(fset.Position(call.Pos()).Line))
			}
		}
		return true
	})
	return out
}

// TestOneClockRule keeps every model wait on clock.Clock: outside
// internal/clock and the bench harness, no non-test file under internal/
// sleeps or waits on the time package's own clock — where a fake clock such
// as the client tests' sleepLog would not see it. A timer an owner keeps
// (time.NewTimer, time.AfterFunc) is not a wait of its own: it is Reset for
// a wait the owner computed on its clock. The rule is first run on a sample
// of what it must and must not catch.
func TestOneClockRule(t *testing.T) {
	const sample = `package x
func a() { time.Sleep(1); <-time.After(1) }
func b() { _, _ = time.Tick(1), time.NewTicker(1) }
func c() { _ = time.NewTimer(1); clk.Sleep(1); <-clk.After(1) }`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "sample.go", sample, 0)
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string][]string{
		"internal/x/x.go":      {"internal/x/x.go:2", "internal/x/x.go:2", "internal/x/x.go:3", "internal/x/x.go:3"},
		"internal/x/x_test.go": nil,
		"internal/clock/x.go":  nil,
		"internal/bench/x.go":  nil,
		"cmd/x/x.go":           nil,
	} {
		if got := wallWaits(fset, path, f); !slices.Equal(got, want) {
			t.Fatalf("the rule finds %v in the sample as %s, want %v", got, path, want)
		}
	}

	eachFile(t, false, func(fset *token.FileSet, path string, f *ast.File) {
		for _, at := range wallWaits(fset, path, f) {
			t.Errorf("%s: waits on the time package: wait on the component's clock.Clock", at)
		}
	})
}
