package analysis

import (
	"go/ast"
	"go/token"
	"path"
	"sort"
	"strings"
	"sync"
)

// This file is the interprocedural layer under the contract rules: a
// package-level call graph over the parsed tree, built with the same
// stdlib-only discipline as the rest of the checker. There is no
// go/types pass — method calls are resolved syntactically through the
// tree's own concrete types (receiver idents, locals bound to composite
// literals or constructor results, struct field chains), which covers
// the engine's dominant idioms exactly: a call the resolver cannot
// attribute simply produces no edge, so every interprocedural rule
// degrades toward not flagging rather than toward false positives.

// TypeRef names a concrete named type declared somewhere in the tree.
// The zero value means "unknown".
type TypeRef struct {
	Pkg  string // package directory, root-relative
	Name string
}

// Known reports whether the reference resolved.
func (t TypeRef) Known() bool { return t.Name != "" }

func (t TypeRef) String() string {
	if !t.Known() {
		return "?"
	}
	return path.Base(t.Pkg) + "." + t.Name
}

// FuncKey identifies one function or method declaration.
type FuncKey struct {
	Pkg  string // package directory, root-relative
	Recv string // receiver type name, "" for plain functions
	Name string
}

func (k FuncKey) String() string {
	if k.Recv != "" {
		return path.Base(k.Pkg) + "." + k.Recv + "." + k.Name
	}
	return path.Base(k.Pkg) + "." + k.Name
}

// LockKey names a mutex-typed field on a concrete type: the identity a
// `// guarded by <mu>` annotation binds an access to.
type LockKey struct {
	Type  TypeRef
	Field string
}

func (l LockKey) String() string { return l.Type.Name + "." + l.Field }

// CallSite is one call expression inside a function body, with the
// callee resolved where the syntactic type information allows.
type CallSite struct {
	Caller   FuncKey
	Call     *ast.CallExpr
	Callee   FuncKey
	Resolved bool
	Go       bool // lexically inside a go statement (runs on a new goroutine)
	Deferred bool
}

// LockOp is a call to Lock/RLock/Unlock/RUnlock on a resolved
// `<base>.<field>` mutex chain.
type LockOp struct {
	Lock LockKey
	Op   string
	Go   ast.Node // enclosing go statement, nil on the main path
	Pos  token.Pos
}

// FieldAccess is a read or write of a resolved struct field.
type FieldAccess struct {
	Type  TypeRef
	Field string
	Pos   token.Pos
	Go    ast.Node // enclosing go statement, nil on the main path
	// Fresh marks accesses rooted at a local the function itself bound
	// to a composite literal — constructor initialization before the
	// value can be shared.
	Fresh bool
}

// FuncInfo is the per-function summary the rules consume.
type FuncInfo struct {
	Key      FuncKey
	Decl     *ast.FuncDecl
	FileRel  string
	Calls    []*CallSite
	Locks    []LockOp
	Accesses []FieldAccess
	// Charges are syntactic Charge/ChargeTicks/ChargePages call
	// positions — the cost-accounting fact, matched by selector name so
	// a failed receiver resolution can never hide a charge.
	Charges []token.Pos
	// RecvName/ParamNames are the flattened parameter identifiers:
	// slot 0 is the receiver (empty for plain functions), slots 1..n
	// the declared parameters in order.
	RecvName   string
	ParamNames []string
}

// structInfo records a struct declaration and its field type
// expressions, kept with their declaring file so imports resolve in the
// right context.
type structInfo struct {
	ref    TypeRef
	file   *fileCtx
	fields map[string]ast.Expr
}

// fileCtx caches a file's import table: local name -> package dir.
type fileCtx struct {
	file    *File
	pkg     *Package
	imports map[string]string
}

// Graph is the package-level call graph plus the type and declaration
// indexes the interprocedural rules share. Build once per tree via
// Tree.Graph.
type Graph struct {
	tree    *Tree
	Funcs   map[FuncKey]*FuncInfo
	structs map[TypeRef]*structInfo
	types   map[TypeRef]bool // every named type declared in the tree
	callers map[FuncKey][]*CallSite
	sites   map[*ast.CallExpr]*CallSite
	pkgDirs map[string]bool
}

var graphCache sync.Map // *Tree -> *Graph

// Graph returns the tree's call graph, building it on first use. The
// result is cached per tree and safe for concurrent readers, so
// parallel rules share one build.
func (t *Tree) Graph() *Graph {
	if g, ok := graphCache.Load(t); ok {
		return g.(*Graph)
	}
	g := buildGraph(t)
	actual, _ := graphCache.LoadOrStore(t, g)
	return actual.(*Graph)
}

// SiteFor returns the call-site record for a call expression, or nil.
func (g *Graph) SiteFor(call *ast.CallExpr) *CallSite { return g.sites[call] }

// SortedFuncs returns the function keys in deterministic order.
func (g *Graph) SortedFuncs() []FuncKey {
	keys := make([]FuncKey, 0, len(g.Funcs))
	for k := range g.Funcs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.Recv != b.Recv {
			return a.Recv < b.Recv
		}
		return a.Name < b.Name
	})
	return keys
}

func buildGraph(t *Tree) *Graph {
	g := &Graph{
		tree:    t,
		Funcs:   map[FuncKey]*FuncInfo{},
		structs: map[TypeRef]*structInfo{},
		types:   map[TypeRef]bool{},
		callers: map[FuncKey][]*CallSite{},
		sites:   map[*ast.CallExpr]*CallSite{},
		pkgDirs: map[string]bool{},
	}
	for _, pkg := range t.Pkgs {
		g.pkgDirs[pkg.Rel] = true
	}
	ctxs := map[*File]*fileCtx{}
	// Pass 1: index every named type, struct layout and function decl.
	for _, pkg := range t.Pkgs {
		for _, f := range pkg.Files {
			fc := &fileCtx{file: f, pkg: pkg, imports: g.importTable(f.Ast)}
			ctxs[f] = fc
			for _, decl := range f.Ast.Decls {
				switch d := decl.(type) {
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						ref := TypeRef{Pkg: pkg.Rel, Name: ts.Name.Name}
						g.types[ref] = true
						if st, ok := ts.Type.(*ast.StructType); ok {
							si := &structInfo{ref: ref, file: fc, fields: map[string]ast.Expr{}}
							for _, fld := range st.Fields.List {
								for _, name := range fld.Names {
									si.fields[name.Name] = fld.Type
								}
							}
							g.structs[ref] = si
						}
					}
				case *ast.FuncDecl:
					key := g.funcKey(pkg, d)
					fi := &FuncInfo{Key: key, Decl: d, FileRel: f.Rel}
					if d.Recv != nil && len(d.Recv.List) == 1 && len(d.Recv.List[0].Names) == 1 {
						fi.RecvName = d.Recv.List[0].Names[0].Name
					}
					if d.Type.Params != nil {
						for _, p := range d.Type.Params.List {
							for _, n := range p.Names {
								fi.ParamNames = append(fi.ParamNames, n.Name)
							}
						}
					}
					g.Funcs[key] = fi
				}
			}
		}
	}
	// Pass 2: per-function environments, call sites and access facts.
	for _, pkg := range t.Pkgs {
		for _, f := range pkg.Files {
			fc := ctxs[f]
			for _, decl := range f.Ast.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				fi := g.Funcs[g.funcKey(pkg, fn)]
				g.analyzeFunc(fc, fi, fn)
			}
		}
	}
	for _, fi := range g.Funcs {
		for _, cs := range fi.Calls {
			if cs.Resolved {
				g.callers[cs.Callee] = append(g.callers[cs.Callee], cs)
			}
		}
	}
	return g
}

func (g *Graph) funcKey(pkg *Package, d *ast.FuncDecl) FuncKey {
	key := FuncKey{Pkg: pkg.Rel, Name: d.Name.Name}
	if d.Recv != nil && len(d.Recv.List) == 1 {
		key.Recv = baseTypeName(d.Recv.List[0].Type)
	}
	return key
}

// baseTypeName unwraps *T, (T) and generic instantiations to the
// underlying type identifier.
func baseTypeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return baseTypeName(x.X)
	case *ast.ParenExpr:
		return baseTypeName(x.X)
	case *ast.IndexExpr:
		return baseTypeName(x.X)
	case *ast.IndexListExpr:
		return baseTypeName(x.X)
	}
	return ""
}

// importTable maps each import's local name to the loaded package dir
// it denotes, matching import paths against the tree's package
// directories by path suffix (the module prefix is irrelevant, which
// keeps fixture trees and the real module on the same footing).
func (g *Graph) importTable(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		rel := ""
		for dir := range g.pkgDirs {
			if p == dir || strings.HasSuffix(p, "/"+dir) {
				if len(dir) > len(rel) {
					rel = dir
				}
			}
		}
		if rel == "" {
			continue
		}
		name := path.Base(p)
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				continue
			}
			name = imp.Name.Name
		}
		out[name] = rel
	}
	return out
}

// resolveTypeExpr maps a type expression to a TypeRef in fc's import
// context. Pointers, parens, slices and arrays collapse to the element
// type — precise enough for field-chain and method resolution, which is
// all the rules need.
func (g *Graph) resolveTypeExpr(fc *fileCtx, e ast.Expr) TypeRef {
	switch x := e.(type) {
	case *ast.Ident:
		ref := TypeRef{Pkg: fc.pkg.Rel, Name: x.Name}
		if g.types[ref] {
			return ref
		}
	case *ast.StarExpr:
		return g.resolveTypeExpr(fc, x.X)
	case *ast.ParenExpr:
		return g.resolveTypeExpr(fc, x.X)
	case *ast.ArrayType:
		return g.resolveTypeExpr(fc, x.Elt)
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if rel, ok := fc.imports[id.Name]; ok {
				ref := TypeRef{Pkg: rel, Name: x.Sel.Name}
				if g.types[ref] {
					return ref
				}
			}
		}
	}
	return TypeRef{}
}

// env is the per-function syntactic typing environment.
type env struct {
	vars  map[string]TypeRef
	fresh map[string]bool
}

// analyzeFunc builds fn's environment, then records call sites, lock
// operations, guarded-field accesses and charge calls.
func (g *Graph) analyzeFunc(fc *fileCtx, fi *FuncInfo, fn *ast.FuncDecl) {
	e := &env{vars: map[string]TypeRef{}, fresh: map[string]bool{}}
	if fn.Recv != nil && len(fn.Recv.List) == 1 && len(fn.Recv.List[0].Names) == 1 {
		e.vars[fn.Recv.List[0].Names[0].Name] = g.resolveTypeExpr(fc, fn.Recv.List[0].Type)
	}
	bindFieldList := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, p := range fl.List {
			t := g.resolveTypeExpr(fc, p.Type)
			for _, n := range p.Names {
				if t.Known() {
					e.vars[n.Name] = t
				}
			}
		}
	}
	bindFieldList(fn.Type.Params)
	bindFieldList(fn.Type.Results)
	// Two environment passes let a binding reference one made later in
	// the body (rare, but free to support at this scale).
	for i := 0; i < 2; i++ {
		g.bindLocals(fc, e, fn.Body)
	}
	g.walkFacts(fc, fi, e, fn.Body, nil, false)
}

// bindLocals populates e from declarations and assignments in body,
// including nested function literals (closures share the enclosing
// function's facts, matching how the rules attribute their bodies).
func (g *Graph) bindLocals(fc *fileCtx, e *env, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ValueSpec:
			t := TypeRef{}
			if st.Type != nil {
				t = g.resolveTypeExpr(fc, st.Type)
			}
			for i, name := range st.Names {
				vt := t
				if !vt.Known() && i < len(st.Values) {
					vt = g.typeOf(fc, e, st.Values[i])
				}
				if vt.Known() {
					e.vars[name.Name] = vt
				}
			}
		case *ast.AssignStmt:
			g.bindAssign(fc, e, st)
		case *ast.RangeStmt:
			if v, ok := st.Value.(*ast.Ident); ok && v.Name != "_" {
				// Slice element types collapse through typeOf; map and
				// channel ranges resolve to unknown, which is correct
				// enough (their element types are rarely tree structs).
				if t := g.typeOf(fc, e, st.X); t.Known() {
					e.vars[v.Name] = t
				}
			}
			if k, ok := st.Key.(*ast.Ident); ok && k.Name != "_" {
				delete(e.vars, k.Name) // index/key vars are never tree types
			}
		case *ast.FuncLit:
			for _, p := range st.Type.Params.List {
				t := g.resolveTypeExpr(fc, p.Type)
				for _, nm := range p.Names {
					if t.Known() {
						e.vars[nm.Name] = t
					}
				}
			}
		}
		return true
	})
}

func (g *Graph) bindAssign(fc *fileCtx, e *env, st *ast.AssignStmt) {
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		// Multi-value: a call's result tuple or a comma-ok form.
		switch rhs := st.Rhs[0].(type) {
		case *ast.CallExpr:
			callee, resolved := g.resolveCall(fc, e, rhs)
			if !resolved {
				return
			}
			fi := g.Funcs[callee]
			if fi == nil || fi.Decl.Type.Results == nil {
				return
			}
			var results []ast.Expr
			for _, r := range fi.Decl.Type.Results.List {
				n := len(r.Names)
				if n == 0 {
					n = 1
				}
				for i := 0; i < n; i++ {
					results = append(results, r.Type)
				}
			}
			calleeCtx := g.fileCtxOf(callee)
			for i, lhs := range st.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" || i >= len(results) || calleeCtx == nil {
					continue
				}
				if t := g.resolveTypeExpr(calleeCtx, results[i]); t.Known() {
					e.vars[id.Name] = t
				}
			}
		case *ast.TypeAssertExpr:
			if id, ok := st.Lhs[0].(*ast.Ident); ok && id.Name != "_" && rhs.Type != nil {
				if t := g.resolveTypeExpr(fc, rhs.Type); t.Known() {
					e.vars[id.Name] = t
				}
			}
		}
		return
	}
	for i, lhs := range st.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" || i >= len(st.Rhs) {
			continue
		}
		rhs := st.Rhs[i]
		if t := g.typeOf(fc, e, rhs); t.Known() {
			e.vars[id.Name] = t
		}
		if isCompositeLit(rhs) {
			e.fresh[id.Name] = true
		}
	}
}

func isCompositeLit(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, ok := x.X.(*ast.CompositeLit)
			return ok
		}
	}
	return false
}

// fileCtxOf rebuilds the declaring file context for a function key.
func (g *Graph) fileCtxOf(key FuncKey) *fileCtx {
	fi := g.Funcs[key]
	if fi == nil {
		return nil
	}
	for _, pkg := range g.tree.Pkgs {
		if pkg.Rel != key.Pkg {
			continue
		}
		for _, f := range pkg.Files {
			if f.Rel == fi.FileRel {
				return &fileCtx{file: f, pkg: pkg, imports: g.importTable(f.Ast)}
			}
		}
	}
	return nil
}

// typeOf resolves an expression's concrete type syntactically; the zero
// TypeRef means unknown.
func (g *Graph) typeOf(fc *fileCtx, e *env, x ast.Expr) TypeRef {
	switch v := x.(type) {
	case *ast.Ident:
		return e.vars[v.Name]
	case *ast.ParenExpr:
		return g.typeOf(fc, e, v.X)
	case *ast.StarExpr:
		return g.typeOf(fc, e, v.X)
	case *ast.UnaryExpr:
		if v.Op == token.AND || v.Op == token.MUL {
			return g.typeOf(fc, e, v.X)
		}
	case *ast.IndexExpr:
		return g.typeOf(fc, e, v.X)
	case *ast.CompositeLit:
		if v.Type != nil {
			return g.resolveTypeExpr(fc, v.Type)
		}
	case *ast.TypeAssertExpr:
		if v.Type != nil {
			return g.resolveTypeExpr(fc, v.Type)
		}
	case *ast.SelectorExpr:
		base := g.typeOf(fc, e, v.X)
		if !base.Known() {
			return TypeRef{}
		}
		si := g.structs[base]
		if si == nil {
			return TypeRef{}
		}
		ft, ok := si.fields[v.Sel.Name]
		if !ok {
			return TypeRef{}
		}
		return g.resolveTypeExpr(si.file, ft)
	case *ast.CallExpr:
		callee, resolved := g.resolveCall(fc, e, v)
		if !resolved {
			return TypeRef{}
		}
		fi := g.Funcs[callee]
		if fi == nil || fi.Decl.Type.Results == nil || len(fi.Decl.Type.Results.List) == 0 {
			return TypeRef{}
		}
		calleeCtx := g.fileCtxOf(callee)
		if calleeCtx == nil {
			return TypeRef{}
		}
		return g.resolveTypeExpr(calleeCtx, fi.Decl.Type.Results.List[0].Type)
	}
	return TypeRef{}
}

// resolveCall resolves a call expression to a declared function or
// method in the tree.
func (g *Graph) resolveCall(fc *fileCtx, e *env, call *ast.CallExpr) (FuncKey, bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		key := FuncKey{Pkg: fc.pkg.Rel, Name: fun.Name}
		if _, ok := g.Funcs[key]; ok {
			// A local variable of the same name shadows the package
			// function; a typed local is visible in the environment.
			if _, shadowed := e.vars[fun.Name]; !shadowed {
				return key, true
			}
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if _, isVar := e.vars[id.Name]; !isVar {
				if rel, ok := fc.imports[id.Name]; ok {
					key := FuncKey{Pkg: rel, Name: fun.Sel.Name}
					if _, ok := g.Funcs[key]; ok {
						return key, true
					}
					return FuncKey{}, false
				}
			}
		}
		if recv := g.typeOf(fc, e, fun.X); recv.Known() {
			key := FuncKey{Pkg: recv.Pkg, Recv: recv.Name, Name: fun.Sel.Name}
			if _, ok := g.Funcs[key]; ok {
				return key, true
			}
		}
	}
	return FuncKey{}, false
}

// chargeNames are the cost-accounting methods of obs.Tracer, obs.Span
// and obs.Budget: a call to any of them, however the receiver was
// reached, counts as charging the active budget.
var chargeNames = map[string]bool{
	"Charge":      true,
	"ChargeTicks": true,
	"ChargePages": true,
}

// walkFacts records call sites, lock ops, field accesses and charges,
// carrying the enclosing go statement (if any) so rules can tell
// goroutine-spawned execution from the main path.
func (g *Graph) walkFacts(fc *fileCtx, fi *FuncInfo, e *env, n ast.Node, goStmt ast.Node, deferred bool) {
	if n == nil {
		return
	}
	switch st := n.(type) {
	case *ast.GoStmt:
		g.walkFacts(fc, fi, e, st.Call, st, deferred)
		return
	case *ast.DeferStmt:
		g.walkFacts(fc, fi, e, st.Call, goStmt, true)
		return
	case *ast.CallExpr:
		g.recordCall(fc, fi, e, st, goStmt, deferred)
		// Children (args, nested calls, func literals) keep walking.
	case *ast.SelectorExpr:
		g.recordAccess(fc, fi, e, st, goStmt)
	}
	for _, child := range childNodes(n) {
		g.walkFacts(fc, fi, e, child, goStmt, deferred)
	}
}

// childNodes lists a node's direct children (one ast.Inspect level).
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}

func (g *Graph) recordCall(fc *fileCtx, fi *FuncInfo, e *env, call *ast.CallExpr, goStmt ast.Node, deferred bool) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if chargeNames[sel.Sel.Name] {
			fi.Charges = append(fi.Charges, call.Pos())
		}
		// Lock operation: <base>.<field>.Lock() with a resolvable base.
		switch sel.Sel.Name {
		case "Lock", "RLock", "Unlock", "RUnlock":
			if inner, ok := sel.X.(*ast.SelectorExpr); ok {
				if base := g.typeOf(fc, e, inner.X); base.Known() {
					fi.Locks = append(fi.Locks, LockOp{
						Lock: LockKey{Type: base, Field: inner.Sel.Name},
						Op:   sel.Sel.Name,
						Go:   goStmt,
						Pos:  call.Pos(),
					})
				}
			}
		}
	}
	callee, resolved := g.resolveCall(fc, e, call)
	cs := &CallSite{
		Caller:   fi.Key,
		Call:     call,
		Callee:   callee,
		Resolved: resolved,
		Go:       goStmt != nil,
		Deferred: deferred,
	}
	fi.Calls = append(fi.Calls, cs)
	g.sites[call] = cs
}

func (g *Graph) recordAccess(fc *fileCtx, fi *FuncInfo, e *env, sel *ast.SelectorExpr, goStmt ast.Node) {
	base := g.typeOf(fc, e, sel.X)
	if !base.Known() {
		return
	}
	si := g.structs[base]
	if si == nil {
		return
	}
	if _, ok := si.fields[sel.Sel.Name]; !ok {
		return
	}
	fi.Accesses = append(fi.Accesses, FieldAccess{
		Type:  base,
		Field: sel.Sel.Name,
		Pos:   sel.Sel.Pos(),
		Go:    goStmt,
		Fresh: e.fresh[rootIdent(sel.X)],
	})
}

// rootIdent returns the identifier at the base of a selector/index
// chain, or "" when the chain roots elsewhere.
func rootIdent(x ast.Expr) string {
	for {
		switch v := x.(type) {
		case *ast.Ident:
			return v.Name
		case *ast.SelectorExpr:
			x = v.X
		case *ast.IndexExpr:
			x = v.X
		case *ast.ParenExpr:
			x = v.X
		case *ast.StarExpr:
			x = v.X
		case *ast.UnaryExpr:
			x = v.X
		default:
			return ""
		}
	}
}
