package bench

import (
	"fmt"

	"statdb/internal/obs"
	"statdb/internal/shard"
	"statdb/internal/workload"
)

// E18ProfilerOverhead prices the deterministic profiler by what it
// walks. The workload is E17's sharded scalar: a 4-shard Moments over
// the 102400-row AVE_SALARY column under a "query" root span, so the
// fold meets a realistic stitched tree (root, scatter span, one child
// per shard, per-range grandchildren). The table reads off the cold
// query's rows scanned, the spans in its stitched tree and the sites in
// its folded profile: the fold visits each span once, so its work is
// set by the tree, never by the rows under it. The wall-clock price of
// one fold and one ring retention is the benchmark ladder's
// (obs.fold_ns, obs.ring_add_ns).
//
// The experiment also asserts the profiler's soundness invariant on the
// cold (uncached) query: the folded profile's tick total must equal the
// root span's Total exactly — cross-shard stitching conserves every
// charged tick, which is what makes the profile trustworthy for
// attribution.
func E18ProfilerOverhead() (*Table, error) {
	t := &Table{
		ID:     "E18",
		Title:  "Profiler cost: span-tree folding on a 4-shard scalar query (spans, sites and virtual ticks)",
		Claim:  "folding a query's span tree into the continuous profile costs per span, never per row; folded ticks equal the root span total exactly",
		Header: []string{"cold query", "count", "exact"},
	}
	census, err := workload.Census(workload.CensusSpec{Regions: 16, Races: 8, AgeGroups: 4, Educations: 100, Seed: 18})
	if err != nil {
		return nil, err
	}
	const col = "AVE_SALARY"
	// Small per-shard buffer pools so the query really pays device ticks
	// (a warm default pool would cache the column and charge nothing,
	// leaving the conservation check vacuous).
	st, err := shard.New("census", census, shard.Config{Shards: 4, PoolPages: 4})
	if err != nil {
		return nil, err
	}
	tr := obs.NewTracer()
	st.SetTracer(tr)

	root := tr.Begin("query")
	m, _, err := st.Moments(col)
	if err != nil {
		return nil, err
	}
	root.End()
	prof := obs.FoldSpan(root)
	if prof.Ticks <= 0 {
		return nil, fmt.Errorf("bench: E18 cold query folded %d ticks; expected real device charges", prof.Ticks)
	}
	rows := m.N + m.Missing
	var spans int64
	for _, s := range prof.Sites {
		spans += s.Calls // every span is folded exactly once
	}
	conserved := prof.Ticks == root.Total()
	exact := "yes"
	if !conserved {
		exact = "NO"
	}
	t.AddRow("rows scanned", rows, "-")
	t.AddRow("spans in the stitched tree", spans, "-")
	t.AddRow("sites in the folded profile", len(prof.Sites), "-")
	t.AddRow("tick conservation (fold == root total)", prof.Ticks, exact)

	t.Finding = fmt.Sprintf(
		"folding the cold 4-shard query visits %d spans into %d profile sites while the query scans %d rows — "+
			"the profiler charges per span, never per row; the cold query folded %d ticks and the root span "+
			"totalled %d, so cross-shard stitching conserved every tick exactly",
		spans, len(prof.Sites), rows, prof.Ticks, root.Total())
	switch {
	case !conserved:
		t.Finding += fmt.Sprintf(" [CLAIM FAILED: folded %d ticks != root total %d]", prof.Ticks, root.Total())
	case spans >= rows:
		t.Finding += fmt.Sprintf(" [CLAIM FAILED: %d spans for %d rows is per-row work]", spans, rows)
	}
	return t, nil
}
