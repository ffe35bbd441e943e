package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// TestOnly (R11) keeps second implementations from settling in: a
// top-level function, method or type declared in a non-test file under
// internal/ must be referenced by some other non-test code in the tree
// — a command, an experiment, an example, the benchmark, or the library
// itself. Everything lives under internal/, so the traffic is fully
// knowable; a declaration only tests reach is a path nobody runs, and
// every such path still has to be lock-annotated, differential-tested
// and read. It belongs in the _test.go that uses it, or nowhere.
//
// The check is object-level: a declaration is referenced when the type
// checker resolves some identifier outside the declaration itself to it
// (a method's receiver counts for its type). A method is also
// referenced when its receiver satisfies a tree interface declaring it —
// the interface's callers reach it dynamically. The callers must be in
// view, so the rule is silent on a tree with no package main loaded (a
// pattern narrower than ./...). Methods that satisfy stdlib interfaces
// the runtime calls by name are exempt (testOnlyExempt); anything else
// kept on purpose — safety code, paper-named operators — carries
// //lint:allow test-only <why>.
type TestOnly struct{}

// testOnlyExempt are method names whose callers are stdlib interfaces:
// fmt.Stringer, error and its unwrapping, http.Handler, sort.Interface,
// the io reader/writer/closer family and types.Importer.
var testOnlyExempt = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true,
	"Len": true, "Less": true, "Swap": true,
	"Read": true, "Write": true, "Close": true, "Seek": true,
	"ReadFrom": true, "WriteTo": true, "ReadAt": true, "WriteAt": true,
	"Import": true,
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
		obj  types.Object
		kind string
	}
	var decls []decl                   // declarations under internal/, in tree order
	own := map[types.Object]ast.Node{} // declaration -> its own syntax
	var ifaces []*types.Interface      // every named tree interface
	roots := false                     // some command is loaded
	for _, pkg := range t.Pkgs {
		internal := underDir(pkg.Rel, "internal")
		for _, f := range pkg.Files {
			roots = roots || f.Ast.Name.Name == "main"
			for _, d := range f.Ast.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := pkg.Info.Defs[d.Name]
					if obj == nil {
						continue
					}
					own[obj] = d
					kind := "func"
					if d.Recv != nil {
						kind = "method"
					}
					exempt := d.Name.Name == "main" || d.Name.Name == "init" || d.Name.Name == "_" ||
						(d.Recv != nil && testOnlyExempt[d.Name.Name])
					if internal && !exempt {
						decls = append(decls, decl{obj, kind})
					}
				case *ast.GenDecl:
					if d.Tok != token.TYPE {
						continue
					}
					for _, spec := range d.Specs {
						ts := spec.(*ast.TypeSpec)
						obj := pkg.Info.Defs[ts.Name]
						if obj == nil {
							continue
						}
						own[obj] = ts
						if internal && ts.Name.Name != "_" {
							decls = append(decls, decl{obj, "type"})
						}
						if iface, ok := obj.Type().Underlying().(*types.Interface); ok && ts.TypeParams == nil {
							ifaces = append(ifaces, iface)
						}
					}
				}
			}
		}
	}
	if !roots {
		return
	}
	used := map[types.Object]bool{}
	for _, pkg := range t.Pkgs {
		for id, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin() // a generic function's instances are its uses
			}
			if n, ok := own[obj]; ok && n.Pos() <= id.Pos() && id.Pos() < n.End() {
				continue
			}
			used[obj] = true
		}
	}
	for _, d := range decls {
		if used[d.obj] || d.kind == "method" && satisfiesTreeInterface(d.obj.(*types.Func), ifaces) {
			continue
		}
		rep.Reportf("test-only", d.obj.Pos(),
			"%s %s is referenced by no non-test file: delete it or move it into the _test.go that uses it",
			d.kind, d.obj.Name())
	}
}

// satisfiesTreeInterface reports whether m's receiver type (value or
// pointer) implements some tree interface that declares a method m's
// name.
func satisfiesTreeInterface(m *types.Func, ifaces []*types.Interface) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := types.Unalias(recv).(*types.Named)
	if !ok || named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(named)
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == m.Name() && (types.Implements(named, iface) || types.Implements(ptr, iface)) {
				return true
			}
		}
	}
	return false
}
