package clock

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
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

// joinRuleBreaks names, as file:line, every call of runtime.NumGoroutine
// outside internal/clock and every import of testing/synctest by a non-test
// file other than clock's tagged Run. path is f's file, relative to the
// module root.
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
		if call, ok := n.(*ast.CallExpr); ok && isSel(call.Fun, "runtime", "NumGoroutine") {
			out = append(out, at(call))
		}
		return true
	})
	return out
}

// TestOneJoinRule keeps "a run is over when every goroutine it started has
// exited" in one place: only internal/clock counts goroutines (Join), and
// only its tagged Run opens a synctest bubble outside a test. A hand-rolled
// poll of the process's goroutine count beside a bubble spends its deadline
// in virtual time while a goroutine outside the bubble is still exiting. The
// rule is first run on a sample of what it must and must not catch.
func TestOneJoinRule(t *testing.T) {
	const sample = `package x
import "testing/synctest"
func a() int { return runtime.NumGoroutine() }
func b() { synctest.Run(func() {}); _ = runtime.NumCPU() }`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "sample.go", sample, 0)
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string][]string{
		"internal/x/x.go":                {"internal/x/x.go:2", "internal/x/x.go:3"},
		"internal/x/x_test.go":           {"internal/x/x_test.go:3"},
		"internal/clock/x.go":            {"internal/clock/x.go:2"},
		"internal/clock/run_synctest.go": nil,
	} {
		if got := joinRuleBreaks(fset, path, f); !slices.Equal(got, want) {
			t.Fatalf("the rule finds %v in the sample as %s, want %v", got, path, want)
		}
	}

	root := filepath.Join("..", "..")
	fset = token.NewFileSet()
	files, err := srctree.Parse(fset, root, true, nil)
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
		for _, at := range joinRuleBreaks(fset, filepath.ToSlash(path), f) {
			t.Errorf("%s: counts goroutines or opens a bubble outside internal/clock: join through clock.Join or clock.Run", at)
		}
	}
}
