package analysis

import (
	"strings"
)

// ChargeTrack (R9) keeps I/O on query paths visible to the cost model:
// any function reachable from a query verb (the exec* executors in
// internal/query) that calls a colstore or storage read API must have a
// Charge/ChargeTicks/ChargePages site on every call path from the verb
// to the read — in its own body, in every reachable caller, or in the
// helper a function literal holding the read is handed to. F-IVM
// style incremental maintenance (PAPERS.md) depends on exact per-delta
// accounting, and an uncharged page-read loop three calls deep is
// exactly the regression unit tests never see: the answer is right, the
// ticks are silently free. The analysis is interprocedural over the
// package call graph; paths that do not start at a verb (recovery,
// checkpointing, experiments) are not constrained.
type ChargeTrack struct{}

// chargeReadPkgs are the storage layers whose read APIs must be
// metered when reached from a verb.
var chargeReadPkgs = map[string]bool{
	"internal/colstore": true,
	"internal/storage":  true,
}

// chargeReadNames are the page- and row-reading entry points of those
// packages. Metadata accessors (Rows, Schema, ColumnRuns) stay free:
// they read cached headers, not pages.
var chargeReadNames = map[string]bool{
	"ScanColumn":       true,
	"NumericColumn":    true,
	"NumericRunColumn": true,
	"RowAt":            true,
	"Materialize":      true,
	"Get":              true,
	"Scan":             true,
	"ScanTolerant":     true,
	"ReadPage":         true,
}

// ID implements Rule.
func (ChargeTrack) ID() string { return "charge-tracking" }

// Doc implements Rule.
func (ChargeTrack) Doc() string {
	return "colstore/storage reads reachable from a query verb charge the tracer/budget on every path (PR 10 contract)"
}

// Check implements Rule.
func (ChargeTrack) Check(t *Tree, rep *Reporter) {
	g := t.Graph()
	var roots []FuncKey
	for key := range g.Funcs {
		if key.Pkg == "internal/query" && strings.HasPrefix(key.Name, "exec") {
			roots = append(roots, key)
		}
	}
	if len(roots) == 0 {
		return
	}
	reachable, charged := g.Charged(roots)
	type dedupKey struct {
		fn  FuncKey
		api string
	}
	seen := map[dedupKey]bool{}
	for _, key := range g.SortedFuncs() {
		// Reads issued by the storage layers themselves are charged by
		// whoever drove them across the package boundary.
		if !reachable[key] || charged[key] || chargeReadPkgs[key.Pkg] {
			continue
		}
		for _, cs := range g.Funcs[key].Calls {
			if g.chargedAround(cs) {
				continue
			}
			for _, api := range cs.Targets {
				if !chargeReadPkgs[api.Pkg] || !chargeReadNames[api.Name] {
					continue
				}
				dk := dedupKey{key, api.String()}
				if seen[dk] {
					continue
				}
				seen[dk] = true
				rep.Reportf("charge-tracking", cs.Call.Pos(),
					"%s reads %s on a query-verb path but neither it nor its callers charge the tracer/budget",
					key, api)
			}
		}
	}
}
