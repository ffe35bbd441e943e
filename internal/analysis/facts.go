package analysis

import (
	"go/ast"
)

// Facts are per-function summaries propagated over the call graph to a
// fixpoint. Three propagations back the contract rules:
//
//   - Holds(lock): the lock is held on every resolved call path into
//     the function (lock-confinement). Greatest fixpoint — start from
//     "held everywhere" and strip functions reachable without it; a
//     `go` edge never carries a lock.
//   - Charged(roots): every call path from a query-verb root into the
//     function passes a Charge/ChargeTicks/ChargePages site
//     (charge-tracking). Same shape, restricted to the verb-reachable
//     subgraph.
//   - SpanSlotOK: a span handed to this parameter slot is ended,
//     forwarded to someone who ends it, or escapes to a new owner
//     (span-balance). Least fixpoint over forwarding edges.

// acquiresLock reports whether fi locks l on its main (non-go) path.
func acquiresLock(fi *FuncInfo, l LockKey) bool {
	for _, op := range fi.Locks {
		if op.Lock == l && op.Go == nil && (op.Op == "Lock" || op.Op == "RLock") {
			return true
		}
	}
	return false
}

// acquiresLockInGo reports whether fi locks l inside the given go
// statement's subtree — the only way a goroutine-spawned body can hold
// a lock the spawner's critical section does not extend to.
func acquiresLockInGo(fi *FuncInfo, l LockKey, goStmt ast.Node) bool {
	for _, op := range fi.Locks {
		if op.Lock == l && op.Go == goStmt && (op.Op == "Lock" || op.Op == "RLock") {
			return true
		}
	}
	return false
}

// Holds computes, for every function, whether lock l is held on every
// resolved call path reaching it: the function acquires l itself, or
// it has at least one caller and every resolved call site reaching it
// is a non-go call from a function that holds l. Entry points that do
// not acquire are not holding, and that fact propagates down.
func (g *Graph) Holds(l LockKey) map[FuncKey]bool {
	holds := make(map[FuncKey]bool, len(g.Funcs))
	for k := range g.Funcs {
		holds[k] = true
	}
	for changed := true; changed; {
		changed = false
		for k, fi := range g.Funcs {
			if !holds[k] {
				continue
			}
			v := acquiresLock(fi, l)
			if !v {
				in := g.callers[k]
				if len(in) > 0 {
					v = true
					for _, cs := range in {
						if cs.Go || !holds[cs.Caller] {
							v = false
							break
						}
					}
				}
			}
			if !v {
				holds[k] = false
				changed = true
			}
		}
	}
	return holds
}

// Reachable returns every function reachable from the given roots over
// resolved edges (go and defer edges included: spawned and deferred
// work still runs on behalf of the root).
func (g *Graph) Reachable(roots []FuncKey) map[FuncKey]bool {
	seen := map[FuncKey]bool{}
	stack := append([]FuncKey{}, roots...)
	for _, r := range roots {
		if _, ok := g.Funcs[r]; ok {
			seen[r] = true
		}
	}
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		fi := g.Funcs[k]
		if fi == nil {
			continue
		}
		for _, cs := range fi.Calls {
			for _, k := range cs.Targets {
				if !seen[k] {
					seen[k] = true
					stack = append(stack, k)
				}
			}
		}
	}
	return seen
}

// Charged computes, over the subgraph reachable from roots, whether
// every call path from a root into the function passes a charge site.
// A function charging in its own body is charged; otherwise it needs
// every reachable caller to be charged. Call edges from outside the
// reachable set are ignored — those paths do not start at a verb.
func (g *Graph) Charged(roots []FuncKey) (reachable, charged map[FuncKey]bool) {
	reachable = g.Reachable(roots)
	charged = make(map[FuncKey]bool, len(reachable))
	for k := range reachable {
		charged[k] = true
	}
	for changed := true; changed; {
		changed = false
		for k := range reachable {
			if !charged[k] {
				continue
			}
			fi := g.Funcs[k]
			v := len(fi.Charges) > 0
			if !v {
				considered := 0
				ok := true
				for _, cs := range g.callers[k] {
					if !reachable[cs.Caller] {
						continue
					}
					considered++
					if !charged[cs.Caller] {
						ok = false
						break
					}
				}
				v = considered > 0 && ok
			}
			if !v {
				charged[k] = false
				changed = true
			}
		}
	}
	return reachable, charged
}

// spanSlot addresses one parameter position of a function: slot 0 is
// the method receiver, slots 1..n the declared parameters in order.
type spanSlot struct {
	fn   FuncKey
	slot int
}

// spanFacts computes, for every (function, parameter slot), whether a
// span handed to that slot is closed: the function calls End on it,
// lets it escape to a new owner (returned, stored, sent, passed to an
// unresolved call), or forwards it to a slot that is itself closed.
func (g *Graph) spanFacts() map[spanSlot]bool {
	type forward struct {
		from, to spanSlot
	}
	ok := map[spanSlot]bool{}
	var forwards []forward

	for key, fi := range g.Funcs {
		if fi.Decl.Body == nil {
			continue
		}
		names := map[string]int{}
		if fi.RecvName != "" && fi.RecvName != "_" {
			names[fi.RecvName] = 0
		}
		for i, n := range fi.ParamNames {
			if n != "_" {
				names[n] = i + 1
			}
		}
		if len(names) == 0 {
			continue
		}
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if sel, isSel := x.Fun.(*ast.SelectorExpr); isSel {
					if id, isID := sel.X.(*ast.Ident); isID {
						if slot, tracked := names[id.Name]; tracked && sel.Sel.Name == "End" {
							ok[spanSlot{key, slot}] = true
						}
					}
				}
				site := g.sites[x]
				for argIdx, a := range x.Args {
					id, isID := a.(*ast.Ident)
					if !isID {
						// A tracked name buried in a larger expression
						// escapes conservatively.
						for name, slot := range names {
							if usesIdent(a, name) {
								ok[spanSlot{key, slot}] = true
							}
						}
						continue
					}
					slot, tracked := names[id.Name]
					if !tracked {
						continue
					}
					if site == nil || !site.Resolved {
						ok[spanSlot{key, slot}] = true
						continue
					}
					callee := g.Funcs[site.Callee]
					if callee == nil || argIdx >= len(callee.ParamNames) {
						// Unknown callee shape or a variadic spill: the
						// span escaped to a new owner.
						ok[spanSlot{key, slot}] = true
						continue
					}
					forwards = append(forwards, forward{
						from: spanSlot{key, slot},
						to:   spanSlot{site.Callee, argIdx + 1},
					})
				}
			case *ast.ReturnStmt, *ast.CompositeLit, *ast.SendStmt:
				for name, slot := range names {
					if nodeUsesIdent(n, name) {
						ok[spanSlot{key, slot}] = true
					}
				}
			case *ast.AssignStmt:
				for _, r := range x.Rhs {
					for name, slot := range names {
						if usesIdent(r, name) {
							ok[spanSlot{key, slot}] = true
						}
					}
				}
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for _, f := range forwards {
			if !ok[f.from] && ok[f.to] {
				ok[f.from] = true
				changed = true
			}
		}
	}
	return ok
}

// nodeUsesIdent is usesIdent over a statement node.
func nodeUsesIdent(n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if id, isID := c.(*ast.Ident); isID && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}
