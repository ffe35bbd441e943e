package analysis

import (
	"go/ast"
	"go/token"
)

// TestOnly (R11) keeps second implementations from settling in: a
// top-level function, method or type declared in a non-test file under
// internal/ must be named by some other non-test code in the tree — a
// command, an experiment, an example, the benchmark, or the library
// itself. Everything lives under internal/, so the traffic is fully
// knowable; a declaration only tests reach is a path nobody runs, and
// every such path still has to be lock-annotated, differential-tested
// and read. It belongs in the _test.go that uses it, or nowhere.
//
// The check is name-level, deliberately: an identifier counts as
// referenced if it appears anywhere in a non-test file other than as
// the name of a top-level declaration, so two declarations sharing a
// name vouch for each other and interface methods are vouched for by
// the interface. That under-reports and never mis-reports. The callers
// must be in view, so the rule is silent on a tree with no package main
// loaded (a pattern narrower than ./...). Methods that satisfy stdlib
// interfaces the runtime calls by name are exempt (testOnlyExempt);
// anything else kept on purpose — safety code, paper-named operators —
// carries //lint:allow test-only <why>.
type TestOnly struct{}

// testOnlyExempt are method names whose callers are stdlib interfaces:
// fmt.Stringer, error and its unwrapping, http.Handler, sort.Interface
// and the io reader/writer/closer family.
var testOnlyExempt = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true,
	"Len": true, "Less": true, "Swap": true,
	"Read": true, "Write": true, "Close": true, "Seek": true,
	"ReadFrom": true, "WriteTo": true, "ReadAt": true, "WriteAt": true,
}

// ID implements Rule.
func (TestOnly) ID() string { return "test-only" }

// Doc implements Rule.
func (TestOnly) Doc() string {
	return "top-level funcs, methods and types under internal/ are referenced by some non-test file (PR 14 contract)"
}

// Check implements Rule.
func (TestOnly) Check(t *Tree, rep *Reporter) {
	type decl struct {
		pos    token.Pos
		name   string
		kind   string
		exempt bool
	}
	var decls []decl          // declarations under internal/, in tree order
	named := map[string]int{} // top-level declarations per name, tree-wide
	seen := map[string]int{}  // identifier occurrences per name, tree-wide
	roots := false            // some command is loaded
	for _, pkg := range t.Pkgs {
		internal := underDir(pkg.Rel, "internal")
		for _, f := range pkg.Files {
			roots = roots || f.Ast.Name.Name == "main"
			ast.Inspect(f.Ast, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					seen[id.Name]++
				}
				return true
			})
			for _, d := range f.Ast.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					named[d.Name.Name]++
					kind := "func"
					if d.Recv != nil {
						kind = "method"
					}
					exempt := d.Name.Name == "main" || d.Name.Name == "init" ||
						(d.Recv != nil && testOnlyExempt[d.Name.Name])
					if internal {
						decls = append(decls, decl{d.Name.Pos(), d.Name.Name, kind, exempt})
					}
				case *ast.GenDecl:
					if d.Tok != token.TYPE {
						continue
					}
					for _, spec := range d.Specs {
						ts := spec.(*ast.TypeSpec)
						named[ts.Name.Name]++
						if internal {
							decls = append(decls, decl{ts.Name.Pos(), ts.Name.Name, "type", false})
						}
					}
				}
			}
		}
	}
	if !roots {
		return
	}
	for _, d := range decls {
		if d.exempt || d.name == "_" || seen[d.name] > named[d.name] {
			continue
		}
		rep.Reportf("test-only", d.pos,
			"%s %s is referenced by no non-test file: delete it or move it into the _test.go that uses it",
			d.kind, d.name)
	}
}
