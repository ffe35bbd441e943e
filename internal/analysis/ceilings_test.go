package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// allowCeilings is the most //lint:allow directives each rule may carry
// in the repository's non-test Go files. A new exemption raises its
// rule's ceiling in the same change, and a deleted one lowers it.
var allowCeilings = map[string]int{
	"charge-tracking":   1,
	"determinism":       1,
	"error-flow":        28,
	"goroutine-confine": 2,
	"no-panic":          10,
	"test-only":         13,
}

// TestAllowCeilings counts the repository's //lint:allow directives per
// rule (go test -v prints the counts) and fails when a rule carries more
// than its ceiling; a rule the table does not list has ceiling 0.
func TestAllowCeilings(t *testing.T) {
	tree, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, r := range DefaultRules() {
		known[r.ID()] = true
	}
	dirs, _ := scanDirectives(tree, known)
	counts := map[string]int{}
	for _, d := range dirs {
		counts[d.rule]++
	}
	rules := make([]string, 0, len(counts))
	for rule := range counts {
		rules = append(rules, rule)
	}
	sort.Strings(rules)
	for _, rule := range rules {
		t.Logf("%s %d", rule, counts[rule])
		if ceiling, ok := allowCeilings[rule]; !ok || counts[rule] > ceiling {
			t.Errorf("%d //lint:allow %s directives, ceiling %d", counts[rule], rule, ceiling)
		}
	}
}

// TestEveryMetricHasAReader holds every canonical name in
// internal/obs/names.go to a reader: some Go file in the repository
// (tests and benchmark/ included, testdata excluded) that references
// the obs.M* constant, its string literal, or its /metrics exposition
// name (statdb_ + the name with '.' as '_') inside a literal, other than
// names.go and other than a non-test file that registers the name
// (passes it to Registry.Counter/Gauge/Histogram, directly or as
// LabeledName's family). Registering a count is not reading it.
func TestEveryMetricHasAReader(t *testing.T) {
	root := filepath.Join("..", "..")
	names := canonicalNames(t, filepath.Join(root, "internal", "obs", "names.go"))
	read := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		if !strings.HasSuffix(path, ".go") || filepath.ToSlash(rel) == "internal/obs/names.go" {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		refs, registers := metricRefs(f, names)
		if strings.HasSuffix(path, "_test.go") {
			registers = nil
		}
		for name := range refs {
			if !registers[name] {
				read[name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unread []string
	for c, name := range names {
		if !read[name] {
			unread = append(unread, name+" (obs."+c+")")
		}
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("%s has no reader: read it in a test that moves it, print it, or delete it", u)
	}
}

// canonicalNames parses the name table: obs.M* constant -> its name.
func canonicalNames(t *testing.T, path string) map[string]string {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := parser.ParseFile(token.NewFileSet(), path, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]string{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, id := range vs.Names {
				if lit, ok := vs.Values[i].(*ast.BasicLit); ok && strings.HasPrefix(id.Name, "M") {
					names[id.Name], _ = strconv.Unquote(lit.Value)
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatalf("%s declares no canonical names", path)
	}
	return names
}

// metricRefs returns the canonical names f references, by constant or
// by literal, and the names it registers.
func metricRefs(f *ast.File, names map[string]string) (refs, registers map[string]bool) {
	byValue := map[string]bool{}
	for _, name := range names {
		byValue[name] = true
	}
	// nameOf resolves an argument naming a metric: a literal or an M*
	// constant.
	nameOf := func(e ast.Expr) string {
		switch x := e.(type) {
		case *ast.BasicLit:
			if s, err := strconv.Unquote(x.Value); err == nil && byValue[s] {
				return s
			}
		case *ast.Ident:
			return names[x.Name]
		case *ast.SelectorExpr:
			return names[x.Sel.Name]
		}
		return ""
	}
	refs, registers = map[string]bool{}, map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			if name := nameOf(x); name != "" {
				refs[name] = true
			}
		case *ast.BasicLit:
			if name := nameOf(x); name != "" {
				refs[name] = true
			}
			for name := range byValue {
				if exposes(x.Value, name) {
					refs[name] = true
				}
			}
		case *ast.CallExpr:
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok || !registrationMethods[sel.Sel.Name] || len(x.Args) == 0 {
				return true
			}
			arg := x.Args[0]
			if call, ok := arg.(*ast.CallExpr); ok && isLabeledNameCall(call) {
				arg = call.Args[0]
			}
			if name := nameOf(arg); name != "" {
				registers[name] = true
			}
		}
		return true
	})
	return refs, registers
}

// exposes reports whether lit mentions name's /metrics exposition form
// as a whole metric name.
func exposes(lit, name string) bool {
	prom := "statdb_" + strings.ReplaceAll(name, ".", "_")
	for rest := lit; ; {
		i := strings.Index(rest, prom)
		if i < 0 {
			return false
		}
		rest = rest[i+len(prom):]
		if rest == "" || !isNameByte(rest[0]) {
			return true
		}
	}
}

func isNameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_'
}
