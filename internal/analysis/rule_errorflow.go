package analysis

import (
	"go/ast"
	"go/types"
)

// ErrorFlow (R10) closes the gap sentinel-errors (R4) leaves open:
// matching ErrCorrupt with errors.Is is useless if a helper three
// calls up silently dropped the error. In library code (internal/),
// an error result must flow: returned, wrapped, passed on, or
// explicitly discarded under a reasoned //lint:allow. The rule is
// interprocedural through the call graph — a callee's signature is
// resolved across files and packages, so `rows, _ := decode(...)`
// is flagged wherever decode's last result is an error, and a bare
// `flush()` statement whose callee returns an error is a dropped error
// even though no variable ever existed. Only callees the tree declares
// are checked (an interface method of a tree interface included); the
// standard library's are not.
type ErrorFlow struct{}

// ID implements Rule.
func (ErrorFlow) ID() string { return "error-flow" }

// Doc implements Rule.
func (ErrorFlow) Doc() string {
	return "error results in internal/ are returned, wrapped or explicitly allowed — never silently dropped (PR 10 contract)"
}

// Check implements Rule.
func (ErrorFlow) Check(t *Tree, rep *Reporter) {
	g := t.Graph()
	for _, key := range g.SortedFuncs() {
		if !underDir(key.Pkg, "internal") {
			continue
		}
		fi := g.Funcs[key]
		if fi.Decl.Body == nil {
			continue
		}
		checkErrorFlow(g, fi, rep)
	}
}

var errorType = types.Universe.Lookup("error").Type()

// errResultIndexes returns the positions of `error`-typed results in a
// callee's signature.
func errResultIndexes(sig *types.Signature) []int {
	var out []int
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Identical(sig.Results().At(i).Type(), errorType) {
			out = append(out, i)
		}
	}
	return out
}

func checkErrorFlow(g *Graph, fi *FuncInfo, rep *Reporter) {
	body := fi.Decl.Body
	// assigned error variables that must be mentioned again:
	// name -> assignment position.
	type pending struct {
		pos    ast.Node
		callee string
	}
	assigned := map[*ast.Ident]pending{}

	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ExprStmt:
			call, ok := st.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			site := g.SiteFor(call)
			if site == nil || !site.Resolved {
				return true
			}
			if len(errResultIndexes(site.Sig)) > 0 {
				rep.Reportf("error-flow", call.Pos(),
					"error result of %s dropped; handle it, return it, or annotate a //lint:allow", site.Callee)
			}
		case *ast.GoStmt:
			// A spawned call's error result has nowhere to flow by
			// construction; the audited fan-out surfaces collect errors
			// through channels, which this rule cannot see. Skip.
			return false
		case *ast.AssignStmt:
			if len(st.Rhs) != 1 {
				return true
			}
			call, ok := st.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			site := g.SiteFor(call)
			if site == nil || !site.Resolved {
				return true
			}
			for _, i := range errResultIndexes(site.Sig) {
				if i >= len(st.Lhs) {
					continue
				}
				id, ok := st.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				if id.Name == "_" {
					rep.Reportf("error-flow", id.Pos(),
						"error result of %s discarded as _; handle it, return it, or annotate a //lint:allow", site.Callee)
					continue
				}
				assigned[id] = pending{pos: id, callee: site.Callee.String()}
			}
		}
		return true
	})

	// Second pass: an assigned error variable must be mentioned again
	// somewhere else in the function — returned, wrapped, checked,
	// reassigned. A variable never seen again was swallowed.
	for id, p := range assigned {
		mentioned := false
		ast.Inspect(body, func(n ast.Node) bool {
			other, ok := n.(*ast.Ident)
			if !ok || other == id || other.Name != id.Name {
				return !mentioned
			}
			mentioned = true
			return false
		})
		if !mentioned {
			rep.Reportf("error-flow", id.Pos(),
				"error from %s assigned to %s and never checked, returned or wrapped", p.callee, id.Name)
		}
	}
}
