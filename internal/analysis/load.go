package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// File is one parsed non-test source file.
type File struct {
	Rel string // root-relative path, forward slashes
	Ast *ast.File
}

// Package groups the files of one directory with their type-checked
// form. Types' path is Rel.
type Package struct {
	Rel   string // root-relative directory, forward slashes ("." for root)
	Files []*File
	Types *types.Package
	Info  *types.Info
}

// Tree is a parsed and type-checked source tree rooted at a module (or
// fixture) root. Rules see the tree exactly as the build does, minus
// _test.go files: testdata, vendor, hidden and underscore-prefixed
// directories are skipped.
type Tree struct {
	Root string
	Fset *token.FileSet
	Pkgs []*Package

	graphOnce sync.Once
	graph     *Graph
}

// relPath converts an absolute file name from the FileSet back to the
// root-relative, slash-separated form findings use.
func (t *Tree) relPath(name string) string {
	if rel, err := filepath.Rel(t.Root, name); err == nil {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(name)
}

// NumFiles returns the number of parsed files.
func (t *Tree) NumFiles() int {
	n := 0
	for _, p := range t.Pkgs {
		n += len(p.Files)
	}
	return n
}

// Load parses the tree under root restricted to patterns. Each pattern
// is a root-relative directory; a trailing "/..." (or the bare "./...")
// selects the whole subtree. No patterns means "./...".
func Load(root string, patterns ...string) (*Tree, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs := map[string]bool{} // root-relative dir -> recursive?
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		recursive := false
		if pat == "..." || strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
		}
		pat = strings.TrimPrefix(pat, "./")
		if pat == "" {
			pat = "."
		}
		key := pat
		if recursive {
			key += "/..."
		}
		dirs[key] = recursive
	}

	t := &Tree{Root: absRoot, Fset: token.NewFileSet()}

	// Phase 1 (serial): walk the directory tree and collect the .go
	// files of every package. Pure directory listing — cheap.
	byDir := map[string][]string{}
	for key, recursive := range dirs {
		dir := strings.TrimSuffix(key, "/...")
		start := filepath.Join(absRoot, filepath.FromSlash(dir))
		info, err := os.Stat(start)
		if err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", dir, err)
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("analysis: %s is not a directory", dir)
		}
		if err := discoverDir(t, byDir, start, recursive); err != nil {
			return nil, err
		}
	}

	// Phase 2 (parallel): parse one goroutine per package. A
	// token.FileSet is safe for concurrent ParseFile, and packages are
	// assembled into pre-sorted slots, so the resulting tree — and
	// every finding order derived from it — is identical to a serial
	// load. The first error in package order wins, deterministically.
	rels := make([]string, 0, len(byDir))
	for rel := range byDir {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	pkgs := make([]*Package, len(rels))
	errs := make([]error, len(rels))
	var wg sync.WaitGroup
	for i, rel := range rels {
		wg.Add(1)
		go func(i int, rel string) {
			defer wg.Done()
			paths := byDir[rel]
			sort.Strings(paths)
			pkg := &Package{Rel: rel}
			for _, path := range paths {
				f, err := parser.ParseFile(t.Fset, path, nil, parser.ParseComments)
				if err != nil {
					errs[i] = fmt.Errorf("analysis: %w", err)
					return
				}
				pkg.Files = append(pkg.Files, &File{Rel: t.relPath(path), Ast: f})
			}
			pkgs[i] = pkg
		}(i, rel)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	t.Pkgs = pkgs
	if err := t.check(); err != nil {
		return nil, err
	}
	return t, nil
}

// check type-checks the packages in import order (phase 3, serial).
// Type errors are tolerated: the checker records everything it could
// resolve and an expression with an error simply has no object, so it
// yields no fact. The real tree is what `go build ./...` compiled; the
// fixtures import packages they do not contain.
func (t *Tree) check() error {
	var imports []string
	for _, p := range t.Pkgs {
		for _, f := range p.Files {
			for _, imp := range f.Ast.Imports {
				if path := importPath(imp); t.lookup(path) == nil {
					imports = append(imports, path)
				}
			}
		}
	}
	if err := listStdlib(imports); err != nil {
		return fmt.Errorf("analysis: %w", err)
	}
	done := map[*Package]bool{}
	var visit func(p *Package)
	visit = func(p *Package) {
		if done[p] {
			return
		}
		done[p] = true
		files := make([]*ast.File, len(p.Files))
		for i, f := range p.Files {
			files[i] = f.Ast
			for _, imp := range f.Ast.Imports {
				if dep := t.lookup(importPath(imp)); dep != nil {
					visit(dep)
				}
			}
		}
		p.Info = &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: treeImporter{t}, Error: func(error) {}}
		p.Types, _ = conf.Check(p.Rel, t.Fset, files, p.Info)
	}
	for _, p := range t.Pkgs {
		visit(p)
	}
	return nil
}

// lookup returns the tree package an import path denotes: the one whose
// directory is the longest suffix of the path. The module prefix is
// irrelevant, which keeps fixture trees and the real module on the same
// footing.
func (t *Tree) lookup(path string) *Package {
	var best *Package
	for _, p := range t.Pkgs {
		if (path == p.Rel || strings.HasSuffix(path, "/"+p.Rel)) && (best == nil || len(p.Rel) > len(best.Rel)) {
			best = p
		}
	}
	return best
}

func importPath(imp *ast.ImportSpec) string { return strings.Trim(imp.Path.Value, `"`) }

// treeImporter resolves a tree package to its checked form and anything
// else to the standard library.
type treeImporter struct{ t *Tree }

func (i treeImporter) Import(path string) (*types.Package, error) {
	if p := i.t.lookup(path); p != nil {
		if p.Types == nil {
			return nil, fmt.Errorf("import cycle through %s", p.Rel)
		}
		return p.Types, nil
	}
	return importStdlib(path)
}

// stdlib is the process's one standard-library importer. It reads each
// package's compiler export data, which listStdlib located, instead of
// type-checking GOROOT sources, and keeps the result, so the cost is
// paid once per process however many trees are loaded.
var stdlib struct {
	sync.Mutex
	imp     types.Importer
	exports map[string]string // import path -> export data file
}

// listStdlib locates the export data of every standard-library package
// in paths not located yet, in one `go list -export` run that builds
// whatever the local build cache lacks. One run per package would cost
// more than the source type-checking it replaces. A path that does not
// list stays unlocated, and importing it fails like any unknown import.
func listStdlib(paths []string) error {
	stdlib.Lock()
	defer stdlib.Unlock()
	if stdlib.exports == nil {
		stdlib.exports = map[string]string{}
	}
	goroot := build.Default.GOROOT
	var todo []string
	for _, path := range paths {
		if _, ok := stdlib.exports[path]; ok || path == "unsafe" {
			continue
		}
		if fi, err := os.Stat(filepath.Join(goroot, "src", filepath.FromSlash(path))); err == nil && fi.IsDir() {
			todo = append(todo, path)
		}
	}
	if len(todo) == 0 {
		return nil
	}
	cmd := exec.Command(filepath.Join(goroot, "bin", "go"),
		append([]string{"list", "-e", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, todo...)...)
	cmd.Dir = goroot
	cmd.Env = append(os.Environ(), "PWD="+goroot, "GOROOT="+goroot)
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list -export: %w", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			stdlib.exports[path] = file
		}
	}
	return nil
}

func importStdlib(path string) (*types.Package, error) {
	stdlib.Lock()
	defer stdlib.Unlock()
	if stdlib.imp == nil {
		stdlib.imp = importer.ForCompiler(token.NewFileSet(), "gc", func(path string) (io.ReadCloser, error) {
			file, ok := stdlib.exports[path]
			if !ok {
				return nil, fmt.Errorf("package %s is neither in the tree nor in the standard library", path)
			}
			return os.Open(file)
		})
	}
	return stdlib.imp.Import(path)
}

// skipDir reports whether a directory is outside the checked tree,
// mirroring the go tool's package-pattern conventions.
func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// discoverDir records the non-test .go files of dir (and, recursively,
// its subtrees) without parsing anything.
func discoverDir(t *Tree, byDir map[string][]string, dir string, recursive bool) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			if recursive && !skipDir(name) {
				if err := discoverDir(t, byDir, filepath.Join(dir, name), true); err != nil {
					return err
				}
			}
			continue
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		relDir := t.relPath(dir)
		byDir[relDir] = append(byDir[relDir], filepath.Join(dir, name))
	}
	return nil
}

// underDir reports whether rel (a package directory) is dir or below it.
func underDir(rel, dir string) bool {
	return rel == dir || strings.HasPrefix(rel, dir+"/")
}

// importsPath returns the ImportSpec of f importing path, or nil.
func importsPath(f *ast.File, path string) *ast.ImportSpec {
	for _, imp := range f.Imports {
		if importPath(imp) == path {
			return imp
		}
	}
	return nil
}
