// Package srctree parses the module's Go files for the rule tests that hold
// the whole source tree to a rule by walking its syntax.
package srctree

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
)

// Parse parses every Go file under root into fset, in walk order (fset names
// each file's path), the _test.go files only when tests is set. It enters no
// directory whose name starts with a dot, and passes over every path below
// root, file or directory, that skip (when not nil) reports.
func Parse(fset *token.FileSet, root string, tests bool, skip func(path string, dir bool) bool) ([]*ast.File, error) {
	var files []*ast.File
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil || path == root:
			return err
		case d.IsDir() && (strings.HasPrefix(d.Name(), ".") || skip != nil && skip(path, true)):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || !tests && strings.HasSuffix(path, "_test.go") || skip != nil && skip(path, false):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		files = append(files, f)
		return err
	})
	return files, err
}
