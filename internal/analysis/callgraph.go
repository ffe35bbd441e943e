package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"slices"
	"sort"
)

// This file is the interprocedural layer under the contract rules: a
// package-level call graph built from the type checker's records
// (types.Info Uses, Selections and Defs). A call resolves to its static
// callee; a call through an interface resolves to every tree method
// that implements the interface (class-hierarchy analysis); a call
// through a function value, a builtin, a conversion, or any expression
// with a type error stays unresolved and produces no edge.

// TypeRef names a concrete named type declared somewhere in the tree.
// The zero value means "unknown".
type TypeRef struct {
	Pkg  string // package directory, root-relative
	Name string
}

func (t TypeRef) String() string { return path.Base(t.Pkg) + "." + t.Name }

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

// CallSite is one call expression inside a function body.
type CallSite struct {
	Caller FuncKey
	Call   *ast.CallExpr
	// Callee is the static callee when the tree declares it: a function,
	// a method, or a method of a named interface. Sig is its signature.
	Callee   FuncKey
	Resolved bool
	Sig      *types.Signature
	// Targets are the tree functions the call can run: Callee, or every
	// tree method implementing an interface callee (whichever package
	// declares the interface).
	Targets  []FuncKey
	Go       bool // lexically inside a go statement (runs on a new goroutine)
	Deferred bool
}

// LockOp is a call to Lock/RLock/Unlock/RUnlock on a `<base>.<field>`
// chain whose field a tree struct declares.
type LockOp struct {
	Lock LockKey
	Op   string
	Go   ast.Node // enclosing go statement, nil on the main path
	Pos  token.Pos
}

// FieldAccess is a read or write of a tree struct's field.
type FieldAccess struct {
	Type  TypeRef // the struct declaring the field
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
	Calls    []*CallSite
	Locks    []LockOp
	Accesses []FieldAccess
	// Charges are syntactic Charge/ChargeTicks/ChargePages call
	// positions — the cost-accounting fact, matched by selector name so
	// no receiver, however it is reached, can hide a charge.
	Charges []token.Pos
	// RecvName/ParamNames are the flattened parameter identifiers:
	// slot 0 is the receiver (empty for plain functions), slots 1..n
	// the declared parameters in order.
	RecvName   string
	ParamNames []string
}

// Graph is the package-level call graph plus the declaration indexes
// the interprocedural rules share. Build once per tree via Tree.Graph.
type Graph struct {
	Funcs   map[FuncKey]*FuncInfo
	callers map[FuncKey][]*CallSite
	sites   map[*ast.CallExpr]*CallSite
	pkgs    map[*types.Package]string // tree package -> Rel
	keys    map[*types.Func]FuncKey   // declared tree functions
	fields  map[*types.Var]TypeRef    // tree struct field -> declaring type
	named   []*types.Named            // concrete non-generic tree types, in tree order
	impls   map[*types.Func][]FuncKey // interface method -> tree implementations
}

// Graph returns the tree's call graph, building it on first use. The
// result is safe for concurrent readers, so parallel rules share one
// build.
func (t *Tree) Graph() *Graph {
	t.graphOnce.Do(func() { t.graph = buildGraph(t) })
	return t.graph
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
		Funcs:   map[FuncKey]*FuncInfo{},
		callers: map[FuncKey][]*CallSite{},
		sites:   map[*ast.CallExpr]*CallSite{},
		pkgs:    map[*types.Package]string{},
		keys:    map[*types.Func]FuncKey{},
		fields:  map[*types.Var]TypeRef{},
		impls:   map[*types.Func][]FuncKey{},
	}
	// Pass 1: index every function declaration, struct field and
	// concrete named type.
	for _, pkg := range t.Pkgs {
		g.pkgs[pkg.Types] = pkg.Rel
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					g.fields[st.Field(i)] = TypeRef{Pkg: pkg.Rel, Name: name}
				}
			}
			if !types.IsInterface(named) && named.TypeParams().Len() == 0 {
				g.named = append(g.named, named)
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Ast.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				key := funcKey(pkg, d)
				fi := &FuncInfo{Key: key, Decl: d}
				if d.Recv != nil && len(d.Recv.List) == 1 && len(d.Recv.List[0].Names) == 1 {
					fi.RecvName = d.Recv.List[0].Names[0].Name
				}
				for _, p := range d.Type.Params.List {
					for _, n := range p.Names {
						fi.ParamNames = append(fi.ParamNames, n.Name)
					}
				}
				g.Funcs[key] = fi
				if fn, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
					g.keys[fn] = key
				}
			}
		}
	}
	// Pass 2: call sites and access facts.
	for _, pkg := range t.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Ast.Decls {
				if d, ok := decl.(*ast.FuncDecl); ok && d.Body != nil {
					w := &funcWalk{g: g, info: pkg.Info, fi: g.Funcs[funcKey(pkg, d)], fresh: freshLocals(pkg.Info, d.Body)}
					w.walk(d.Body, nil, false)
				}
			}
		}
	}
	for _, fi := range g.Funcs {
		for _, cs := range fi.Calls {
			for _, k := range cs.Targets {
				g.callers[k] = append(g.callers[k], cs)
			}
		}
	}
	return g
}

func funcKey(pkg *Package, d *ast.FuncDecl) FuncKey {
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

// key returns the FuncKey of a function, method or named-interface
// method the tree declares.
func (g *Graph) key(fn *types.Func) (FuncKey, bool) {
	fn = fn.Origin()
	if k, ok := g.keys[fn]; ok {
		return k, true
	}
	rel, inTree := g.pkgs[fn.Pkg()]
	recv := fn.Type().(*types.Signature).Recv()
	if !inTree || recv == nil {
		return FuncKey{}, false
	}
	named, ok := types.Unalias(recv.Type()).(*types.Named)
	if !ok {
		return FuncKey{}, false
	}
	return FuncKey{Pkg: rel, Recv: named.Obj().Name(), Name: fn.Name()}, true
}

// implementations returns every tree method a call of interface method
// m can run: m of each concrete tree type whose value or pointer
// implements m's interface. Generic types are skipped (go/types leaves
// Implements unspecified for them).
func (g *Graph) implementations(m *types.Func) []FuncKey {
	if out, ok := g.impls[m]; ok {
		return out
	}
	iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	var out []FuncKey
	for _, named := range g.named {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		// A method promoted from an embedded type is found once per
		// embedder; it is one target.
		obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok {
			if k, ok := g.key(fn); ok && g.Funcs[k] != nil && !slices.Contains(out, k) {
				out = append(out, k)
			}
		}
	}
	g.impls[m] = out
	return out
}

// callee returns the static callee of a call: a declared function, a
// concrete method, or an interface method. Generic instantiation is
// seen through.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch x := fun.(type) {
	case *ast.IndexExpr:
		fun = x.X
	case *ast.IndexListExpr:
		fun = x.X
	}
	var obj types.Object
	switch x := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[x]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			if sel.Kind() != types.MethodVal {
				return nil // a func-typed field or a method expression
			}
			obj = sel.Obj()
		} else {
			obj = info.Uses[x.Sel] // package-qualified
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// fieldOwner returns the tree struct declaring the field sel selects.
func (g *Graph) fieldOwner(info *types.Info, sel *ast.SelectorExpr) (TypeRef, bool) {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return TypeRef{}, false
	}
	owner, ok := g.fields[s.Obj().(*types.Var).Origin()]
	return owner, ok
}

// freshLocals returns the locals body binds to a composite literal.
func freshLocals(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	mark := func(id *ast.Ident, rhs ast.Expr) {
		if obj := info.ObjectOf(id); obj != nil && isCompositeLit(rhs) {
			fresh[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && i < len(st.Rhs) {
					mark(id, st.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, id := range st.Names {
				if i < len(st.Values) {
					mark(id, st.Values[i])
				}
			}
		}
		return true
	})
	return fresh
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

// chargeNames are the cost-accounting methods of obs.Tracer, obs.Span
// and obs.Budget: a call to any of them, however the receiver was
// reached, counts as charging the active budget.
var chargeNames = map[string]bool{
	"Charge":      true,
	"ChargeTicks": true,
	"ChargePages": true,
}

// funcWalk records one function's facts.
type funcWalk struct {
	g     *Graph
	info  *types.Info
	fi    *FuncInfo
	fresh map[types.Object]bool
}

// walk records call sites, lock ops, field accesses and charges,
// carrying the enclosing go statement (if any) so rules can tell
// goroutine-spawned execution from the main path. Nested function
// literals belong to the enclosing function.
func (w *funcWalk) walk(n ast.Node, goStmt ast.Node, deferred bool) {
	if n == nil {
		return
	}
	switch st := n.(type) {
	case *ast.GoStmt:
		w.walk(st.Call, st, deferred)
		return
	case *ast.DeferStmt:
		w.walk(st.Call, goStmt, true)
		return
	case *ast.CallExpr:
		w.recordCall(st, goStmt, deferred)
		// Children (args, nested calls, func literals) keep walking.
	case *ast.SelectorExpr:
		if owner, ok := w.g.fieldOwner(w.info, st); ok {
			w.fi.Accesses = append(w.fi.Accesses, FieldAccess{
				Type:  owner,
				Field: st.Sel.Name,
				Pos:   st.Sel.Pos(),
				Go:    goStmt,
				Fresh: w.fresh[w.info.Uses[rootIdent(st.X)]],
			})
		}
	}
	for _, child := range childNodes(n) {
		w.walk(child, goStmt, deferred)
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

func (w *funcWalk) recordCall(call *ast.CallExpr, goStmt ast.Node, deferred bool) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if chargeNames[sel.Sel.Name] {
			w.fi.Charges = append(w.fi.Charges, call.Pos())
		}
		// Lock operation: <base>.<field>.Lock() on a tree struct field.
		switch sel.Sel.Name {
		case "Lock", "RLock", "Unlock", "RUnlock":
			if inner, ok := sel.X.(*ast.SelectorExpr); ok {
				if owner, ok := w.g.fieldOwner(w.info, inner); ok {
					w.fi.Locks = append(w.fi.Locks, LockOp{
						Lock: LockKey{Type: owner, Field: inner.Sel.Name},
						Op:   sel.Sel.Name,
						Go:   goStmt,
						Pos:  call.Pos(),
					})
				}
			}
		}
	}
	cs := &CallSite{Caller: w.fi.Key, Call: call, Go: goStmt != nil, Deferred: deferred}
	if fn := callee(w.info, call); fn != nil {
		sig := fn.Type().(*types.Signature)
		if sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			cs.Targets = w.g.implementations(fn)
		}
		if k, ok := w.g.key(fn); ok {
			cs.Callee, cs.Resolved, cs.Sig = k, true, sig
			if cs.Targets == nil && w.g.Funcs[k] != nil {
				cs.Targets = []FuncKey{k}
			}
		}
	}
	w.fi.Calls = append(w.fi.Calls, cs)
	w.g.sites[call] = cs
}

// rootIdent returns the identifier at the base of a selector/index
// chain, or nil when the chain roots elsewhere.
func rootIdent(x ast.Expr) *ast.Ident {
	for {
		switch v := x.(type) {
		case *ast.Ident:
			return v
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
			return nil
		}
	}
}
