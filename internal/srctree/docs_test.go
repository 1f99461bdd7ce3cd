package srctree

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The docs rule: every name a document cites in backticks exists in the
// tree, every citation of a DESIGN.md section by its quoted name names a
// heading or a bold lead, and every ## section of DESIGN.md names a test that
// holds it. The doc-comment rule: a doc comment on a top-level declaration
// begins with the declared name or with an article. Both are first run on a
// sample of what they must and must not catch, then on the tree.

// root is the module root, relative to this package.
var root = filepath.Join("..", "..")

// docFiles are the documents whose backticked names must exist.
var docFiles = []string{"DESIGN.md", "EXPERIMENTS.md", "README.md", ".claude/skills/verify/SKILL.md"}

// citingFiles are the files besides the Go comments whose citations of a
// DESIGN.md section must name one. CHANGES.md is a log of what was, and is
// not among them.
var citingFiles = []string{"Makefile", "ROADMAP.md", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// stdPackages are the standard-library packages the documents name
// members of; a qualified name in one of them is outside the tree.
var stdPackages = []string{
	"atomic", "binary", "bufio", "bytes", "context", "crc32", "errors", "filepath", "fmt", "fs",
	"io", "json", "math", "net", "os", "parser", "pprof", "rand", "reflect", "runtime", "slices",
	"sort", "strconv", "strings", "sync", "synctest", "syscall", "testing", "time", "unsafe", "weak",
}

// runtimeFiles are the Go runtime's source files the documents cite.
var runtimeFiles = []string{"runtime/netpoll_epoll.go"}

// metricFiles hold the metric names the documents may cite in backticks;
// they are read, never written.
var metricFiles = []string{"BENCHMARK.json", "internal/bench/testdata/perf_baseline.json"}

// names is what a cited name resolves against.
type names struct {
	pkgs    map[string]map[string]bool // package name → its top-level and method names
	types   map[string]map[string]bool // type name → its field and method names
	funcs   []string                   // every top-level function name, sorted
	bases   map[string]bool            // every file's base name
	targets map[string]bool            // the Makefile's targets
	outside map[string]bool            // names outside the tree: metrics, runtime files
}

// addFile records f's declarations, in package f.Name.
func (n *names) addFile(f *ast.File) {
	pkg := n.pkgs[f.Name.Name]
	if pkg == nil {
		pkg = map[string]bool{}
		n.pkgs[f.Name.Name] = pkg
	}
	member := func(typ, name string) {
		if n.types[typ] == nil {
			n.types[typ] = map[string]bool{}
		}
		n.types[typ][name] = true
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			pkg[d.Name.Name] = true
			if d.Recv == nil {
				n.funcs = append(n.funcs, d.Name.Name)
			} else if typ := recvType(d.Recv.List[0].Type); typ != "" {
				member(typ, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					pkg[s.Name.Name] = true
					if n.types[s.Name.Name] == nil {
						n.types[s.Name.Name] = map[string]bool{}
					}
					var fields *ast.FieldList
					switch t := s.Type.(type) {
					case *ast.StructType:
						fields = t.Fields
					case *ast.InterfaceType:
						fields = t.Methods
					}
					if fields == nil {
						continue
					}
					for _, fld := range fields.List {
						for _, id := range fld.Names {
							member(s.Name.Name, id.Name)
						}
						if len(fld.Names) == 0 {
							if typ := recvType(fld.Type); typ != "" {
								member(s.Name.Name, typ)
							}
						}
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						pkg[id.Name] = true
					}
				}
			}
		}
	}
}

// recvType is the name of the type a receiver or embedded field expression
// names: T, *T, T[P], pkg.T.
func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

var (
	qualified  = regexp.MustCompile(`^([A-Za-z_]\w*)\.(?:\(\*([A-Za-z_]\w*)\)\.)?([A-Za-z_]\w*)$`)
	testShaped = regexp.MustCompile(`^((?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*)(\*?)(?:/\S*)?$`)
	makeTarget = regexp.MustCompile(`^make((?: [a-z][a-z0-9-]*)+)$`)
	pathShaped = regexp.MustCompile(`^[\w./-]+\.(?:go|json|md|sh)$`)
)

// resolves reports whether span is shaped like a name the rule checks and,
// if so, whether it names something that exists.
func (n *names) resolves(span string) (shaped, ok bool) {
	if n.outside[span] {
		return true, true
	}
	if m := testShaped.FindStringSubmatch(span); m != nil {
		i, found := slices.BinarySearch(n.funcs, m[1])
		return true, found || m[2] == "*" && i < len(n.funcs) && strings.HasPrefix(n.funcs[i], m[1])
	}
	if pathShaped.MatchString(span) {
		if !strings.Contains(span, "/") {
			return true, n.bases[span]
		}
		return true, exists(span) || exists("internal/"+span)
	}
	if m := qualified.FindStringSubmatch(span); m != nil {
		x, typ, sel := m[1], m[2], m[3]
		if slices.Contains(stdPackages, x) {
			return true, true
		}
		if typ != "" {
			return true, n.pkgs[x] != nil && n.pkgs[x][typ] && n.types[typ][sel]
		}
		switch {
		case n.pkgs[x] != nil:
			return true, n.pkgs[x][sel]
		case n.types[x] != nil:
			return true, n.types[x][sel]
		}
		// A variable's type is not known without type-checking; a
		// capitalised name that is no type is a type that went.
		return 'A' <= x[0] && x[0] <= 'Z', false
	}
	if m := makeTarget.FindStringSubmatch(span); m != nil {
		for _, target := range strings.Fields(m[1]) {
			if !n.targets[target] {
				return true, false
			}
		}
		return true, true
	}
	return false, false
}

// codeSpans returns the backticked spans of a Markdown text, each with its
// line breaks and indents folded to one space, leaving out fenced blocks.
func codeSpans(text string) []string {
	var prose strings.Builder
	fenced := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			prose.WriteString("\n")
			continue
		}
		if !fenced {
			prose.WriteString(line + "\n")
		}
	}
	var spans []string
	for i, part := range strings.Split(prose.String(), "`") {
		if i%2 == 1 {
			spans = append(spans, strings.Join(strings.Fields(part), " "))
		}
	}
	return spans
}

// staleSpans returns the backticked names of text that are shaped like a
// name the rule checks and name nothing.
func (n *names) staleSpans(text string) []string {
	var out []string
	for _, span := range codeSpans(text) {
		if shaped, ok := n.resolves(span); shaped && !ok {
			out = append(out, span)
		}
	}
	return out
}

var (
	heading     = regexp.MustCompile(`(?m)^#+ +(.+?) *$`)
	boldLead    = regexp.MustCompile(`(?m)^ *(?:- )?\*\*(.+?)\*\*`)
	citation    = regexp.MustCompile(`DESIGN\.md(?:'s)?,?[ (]+((?:"[^"]+"(?:[,;]? *(?:and )?)?)+)`)
	quoted      = regexp.MustCompile(`"([^"]+)"`)
	commentMark = regexp.MustCompile(`(?m)^[ \t]*#`)
)

// sections returns the names a citation may use: DESIGN.md's headings and
// the bold leads of its paragraphs and bullets, a closing period or colon
// dropped.
func sections(design string) map[string]bool {
	out := map[string]bool{}
	for _, re := range []*regexp.Regexp{heading, boldLead} {
		for _, m := range re.FindAllStringSubmatch(design, -1) {
			name := strings.TrimRight(m[1], ".:")
			before, _, _ := strings.Cut(name, ": ")
			out[name], out[before] = true, true
		}
	}
	return out
}

// citations returns the section names text cites: DESIGN.md followed by
// one or more quoted names, across line breaks and a Makefile's comment
// marks. A → in a name separates a section from a part of it, and each must
// exist. A citation inside a code span is an example, not a citation.
func citations(text string) []string {
	parts := strings.Split(commentMark.ReplaceAllString(text, ""), "`")
	for i := 1; i < len(parts); i += 2 {
		parts[i] = strings.ReplaceAll(parts[i], "DESIGN.md", "DESIGN")
	}
	var out []string
	for _, m := range citation.FindAllStringSubmatch(strings.Join(strings.Fields(strings.Join(parts, "`")), " "), -1) {
		for _, q := range quoted.FindAllStringSubmatch(m[1], -1) {
			for _, name := range strings.Split(q[1], " → ") {
				out = append(out, name)
			}
		}
	}
	return out
}

// untested returns the ## sections of DESIGN.md that name no test: no
// backticked test-shaped name that resolves.
func (n *names) untested(design string) []string {
	var out []string
	for _, sec := range strings.Split(design, "\n## ")[1:] {
		title, body, _ := strings.Cut(sec, "\n")
		held := false
		for _, span := range codeSpans(body) {
			if testShaped.MatchString(span) {
				if _, ok := n.resolves(span); ok {
					held = true
					break
				}
			}
		}
		if !held {
			out = append(out, title)
		}
	}
	return out
}

// docBreaks returns, as "path:line name", every doc comment on a top-level
// function, method, or ungrouped type, var or const of f that begins with
// neither the declared name nor an article; checked counts the comments it
// looked at. A parenthesised group's comments head a list, not one name, and
// are left alone.
func docBreaks(fset *token.FileSet, path string, f *ast.File) (out []string, checked int) {
	for _, d := range f.Decls {
		var doc *ast.CommentGroup
		var names []string
		switch d := d.(type) {
		case *ast.FuncDecl:
			doc, names = d.Doc, []string{d.Name.Name}
		case *ast.GenDecl:
			if d.Lparen.IsValid() || d.Tok == token.IMPORT {
				continue
			}
			switch s := d.Specs[0].(type) {
			case *ast.TypeSpec:
				names = []string{s.Name.Name}
			case *ast.ValueSpec:
				for _, id := range s.Names {
					names = append(names, id.Name)
				}
			}
			doc = d.Doc
		}
		if doc == nil {
			continue
		}
		checked++
		first, _, _ := strings.Cut(strings.TrimSpace(doc.Text()), " ")
		if first != "A" && first != "An" && first != "The" && !slices.Contains(names, first) {
			out = append(out, path+":"+strconv.Itoa(fset.Position(doc.Pos()).Line)+" "+names[0])
		}
	}
	return out, checked
}

// parsed is the module's files: every Go file, comments included, and the
// base name of every file, below root and outside dot directories. Parse
// drops comments, so the walk is this file's own.
type parsed struct {
	fset  *token.FileSet
	files map[string]*ast.File // by path relative to root
	bases map[string]bool
}

// tree parses the module once for every test of the package.
var tree = sync.OnceValues(func() (*parsed, error) {
	p := &parsed{fset: token.NewFileSet(), files: map[string]*ast.File{}, bases: map[string]bool{}}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil || path == root:
			return err
		case d.IsDir() && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir():
			return nil
		}
		p.bases[d.Name()] = true
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(p.fset, path, nil, parser.ParseComments)
		rel, _ := filepath.Rel(root, path)
		p.files[filepath.ToSlash(rel)] = f
		return err
	})
	return p, err
})

// parse returns the parsed module, failing t if the walk did.
func parse(t *testing.T) *parsed {
	t.Helper()
	p, err := tree()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.files) < 100 {
		t.Fatalf("parsed %d Go files: the walk missed the tree", len(p.files))
	}
	return p
}

// newNames returns an empty set of names over the module's files.
func newNames() *names {
	return &names{pkgs: map[string]map[string]bool{}, types: map[string]map[string]bool{},
		bases: map[string]bool{}, targets: map[string]bool{}, outside: map[string]bool{}}
}

// exists reports whether path, relative to root, names a file.
func exists(path string) bool {
	_, err := os.Stat(filepath.Join(root, path))
	return err == nil
}

// treeNames returns what the tree's names are: its Go declarations, files,
// Makefile targets and the metric names its benchmarks report.
func treeNames(t *testing.T) *names {
	t.Helper()
	p := parse(t)
	n := newNames()
	n.bases = p.bases
	for _, f := range p.files {
		n.addFile(f)
	}
	slices.Sort(n.funcs)
	makefile := read(t, "Makefile")
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllStringSubmatch(makefile, -1) {
		n.targets[m[1]] = true
	}
	for _, p := range runtimeFiles {
		n.outside[p] = true
	}
	for _, p := range metricFiles {
		var v any
		if err := json.Unmarshal([]byte(read(t, p)), &v); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		metricNames(v, nil, n.outside)
	}
	return n
}

// metricNames adds to out every name a JSON document gives a metric: the
// value of each "name" field, and each dotted run of nested keys that ends
// at a key (counts.footprint, footprint.pool_idle_bytes).
func metricNames(v any, path []string, out map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, e := range v {
			if s, ok := e.(string); ok && k == "name" {
				out[s] = true
			}
			p := append(slices.Clip(path), k)
			for i := range p {
				out[strings.Join(p[i:], ".")] = true
			}
			metricNames(e, p, out)
		}
	case []any:
		for _, e := range v {
			metricNames(e, path, out)
		}
	}
}

// read returns the file at path, relative to root.
func read(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, path))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDocsNameWhatExists holds the documents to the tree: a renamed or
// deleted function, test, file, make target or DESIGN.md section cannot
// leave a document pointing at nothing.
func TestDocsNameWhatExists(t *testing.T) {
	const sampleGo = `package pkg
type T struct{ field int }
func (T) M() {}
func (t *T) m() {}
func Name() {}
func TestHeld(t *testing.T) {}`
	const sample = "# Sample\n\n" +
		"## Held\n\n" +
		"**Lead: of it.** `pkg.Name`, `pkg.(*T).m`, `T.M`, `T.field`, `TestHeld/sub`, `TestHe*`, `make check`,\n" +
		"`docs_test.go`, `srctree/srctree.go`, `time.Sleep`, `runtime/netpoll_epoll.go`, `iops`,\n" +
		"`go test ./...`, `make -C x`, `x.gone`, `Testing`, `DESIGN.md \"Gone\"`, `` and `Name` pass.\n\n" +
		"```\npkg.Gone TestGone\n```\n\n" +
		"## Stale\n\n" +
		"`pkg.Gone`, `pkg.(*T).gone`, `T.gone`, `Gone.field`, `TestGone`, `TestGo*`, `make gone`,\n" +
		"`gone.go`, `srctree/gone.go` do not; DESIGN.md \"Held\", \"Lead\",\n" +
		"\"Lead: of it\" and \"Held → Lead\" pass; DESIGN.md \"Gone\" does not.\n"
	f, err := parser.ParseFile(token.NewFileSet(), "sample.go", sampleGo, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := treeNames(t)
	sampled := newNames()
	sampled.bases, sampled.targets = n.bases, n.targets
	sampled.outside["iops"], sampled.outside["runtime/netpoll_epoll.go"] = true, true
	sampled.addFile(f)
	slices.Sort(sampled.funcs)
	if got, want := sampled.staleSpans(sample), []string{"pkg.Gone", "pkg.(*T).gone", "T.gone", "Gone.field", "TestGone", "TestGo*", "make gone", "gone.go", "srctree/gone.go"}; !slices.Equal(got, want) {
		t.Fatalf("the rule finds %q stale in the sample, want %q", got, want)
	}
	secs := sections(sample)
	var missing []string
	for _, c := range citations(sample) {
		if !secs[c] {
			missing = append(missing, c)
		}
	}
	if want := []string{"Gone"}; !slices.Equal(missing, want) {
		t.Fatalf("the rule finds citations of %q missing in the sample, want %q", missing, want)
	}
	if got, want := sampled.untested(sample), []string{"Stale"}; !slices.Equal(got, want) {
		t.Fatalf("the rule finds sections %q with no test in the sample, want %q", got, want)
	}

	for _, doc := range docFiles {
		for _, span := range n.staleSpans(read(t, doc)) {
			t.Errorf("%s: `%s` names nothing in the tree", doc, span)
		}
	}
	design := read(t, "DESIGN.md")
	for _, title := range n.untested(design) {
		t.Errorf("DESIGN.md: section %q names no test that holds it", title)
	}
	secs = sections(design)
	cite := func(where, text string) {
		for _, c := range citations(text) {
			if !secs[c] {
				t.Errorf("%s: DESIGN.md %q names no heading or bold lead", where, c)
			}
		}
	}
	for _, p := range citingFiles {
		cite(p, read(t, p))
	}
	p := parse(t)
	for path, f := range p.files {
		for _, cg := range f.Comments {
			cite(path+":"+strconv.Itoa(p.fset.Position(cg.Pos()).Line), cg.Text())
		}
	}
}

// TestDocCommentsNameTheirDeclaration holds every non-test Go file outside
// benchmark/ to golint's first-word rule: a doc comment on a top-level
// declaration begins with the declared name, or with "A", "An" or "The", so
// a renamed declaration cannot keep a comment about its old name.
func TestDocCommentsNameTheirDeclaration(t *testing.T) {
	const sample = `package x

// F does.
func F() {}

// Old does.
func (T) M() {}

// An x, a y.
var x, y = 1, 2

// Group header.
const (
	// B is.
	B = 1
	// Cee is.
	C = 2
)

// The type.
type T int

// Layout of T:
//	0 x
type U int`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "sample.go", sample, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	if got, checked := docBreaks(fset, "x.go", f); !slices.Equal(got, []string{"x.go:6 M", "x.go:23 U"}) || checked != 5 {
		t.Fatalf("the rule finds %q in the sample of %d comments, want [x.go:6 M, x.go:23 U] of 5", got, checked)
	}

	p := parse(t)
	total := 0
	for _, path := range slices.Sorted(maps.Keys(p.files)) {
		if strings.HasSuffix(path, "_test.go") || strings.HasPrefix(path, "benchmark/") {
			continue
		}
		breaks, checked := docBreaks(p.fset, path, p.files[path])
		total += checked
		for _, at := range breaks {
			t.Errorf("%s: the doc comment begins with neither the declared name nor A, An or The", at)
		}
	}
	if total < 1000 {
		t.Fatalf("checked %d doc comments: the walk missed the tree", total)
	}
	t.Logf("%d doc comments checked", total)
}
