package bench

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"statdb/internal/incr"
	"statdb/internal/medwin"
	"statdb/internal/rules"
	"statdb/internal/stats"
	"statdb/internal/summary"
	"statdb/internal/workload"
)

// passCountingColumn is a mutable column that counts full passes.
type passCountingColumn struct {
	xs     []float64
	passes int
}

func (c *passCountingColumn) source() func() ([]float64, []bool) {
	return func() ([]float64, []bool) {
		c.passes++
		return append([]float64(nil), c.xs...), nil
	}
}

func randomColumn(n int, seed int64) *passCountingColumn {
	rng := rand.New(rand.NewSource(seed))
	c := &passCountingColumn{xs: make([]float64, n)}
	for i := range c.xs {
		c.xs[i] = float64(rng.Intn(100000))
	}
	return c
}

// Figure5FiniteDifferencing reproduces the Figure 5 loop: f recomputed
// for i = 1..n with one argument changing each iteration, versus the
// finite-differenced f' that folds only the change.
func Figure5FiniteDifferencing() (*Table, error) {
	t := &Table{
		ID:     "F5",
		Title:  "Figure 5 — repetitive computation vs finite-differenced f'",
		Claim:  "f' exploits constant arguments: per-iteration work drops from O(n) to O(1) [KOEN81 totals & averages]",
		Header: []string{"column size n", "iterations", "values touched (recompute f)", "values touched (f')", "reduction"},
	}
	for _, n := range []int{1000, 10000, 100000} {
		c := randomColumn(n, int64(n))
		const iters = 100
		// Recompute path: each iteration re-reads all n values.
		full := int64(0)
		for i := 0; i < iters; i++ {
			c.xs[i%n] = float64(i)
			if _, err := stats.Mean(c.xs, nil); err != nil {
				return nil, err
			}
			full += int64(n)
		}
		// Finite-differenced path: one delta per iteration.
		f := incr.NewVariance(c.xs, nil)
		diff := int64(n) // initial build reads the column once
		for i := 0; i < iters; i++ {
			old := c.xs[i%n]
			c.xs[i%n] = float64(i * 2)
			f.Apply(incr.UpdateOf(old, float64(i*2)))
			diff++
		}
		got, err := f.Moments().MeanValue()
		if err != nil {
			return nil, err
		}
		want, _ := stats.Mean(c.xs, nil) //lint:allow error-flow synthetic column is non-empty by construction
		if d := got - want; d > 1e-6 || d < -1e-6 {
			return nil, fmt.Errorf("f' diverged: %g vs %g", got, want)
		}
		t.AddRow(n, iters, full, diff, ratio(float64(full), float64(diff)))
	}
	t.Finding = "f' touches n + k values for k iterations vs n*k for recomputation; the gap grows linearly in n"
	return t, nil
}

// E1SummaryCache measures the headline claim: caching function results in
// the Summary Database saves repeated passes over the view during an
// analysis session (Sections 3.1-3.2).
func E1SummaryCache() (*Table, error) {
	t := &Table{
		ID:     "E1",
		Title:  "Summary Database caching over an analysis session",
		Claim:  "storing results of repetitive computations avoids re-reading the data set; savings grow with the repeat rate",
		Header: []string{"repeat bias", "ops", "repeat rate", "passes (no cache)", "passes (cache)", "saving"},
	}
	attrs := make([]string, 12)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("ATTR%02d", i)
	}
	for _, bias := range []float64{0, 0.5, 0.9} {
		trace, err := workload.Trace(workload.SessionSpec{
			Attrs: attrs, Ops: 300, RepeatBias: bias, Seed: 42,
		})
		if err != nil {
			return nil, err
		}
		// No cache: every op is one pass.
		noCache := len(trace)
		// Cache: one pass per attribute — its first read keeps the states
		// every later function on it finalizes from.
		mdb := rules.NewManagementDB()
		db := summary.NewDB(mdb)
		cols := map[string]*passCountingColumn{}
		for i, a := range attrs {
			cols[a] = randomColumn(2000, int64(i+1))
		}
		for _, op := range trace {
			if _, err := db.Scalar(op.Fn, op.Attr, cols[op.Attr].source()); err != nil {
				return nil, err
			}
		}
		cached := 0
		for _, c := range cols {
			cached += c.passes
		}
		t.AddRow(fmt.Sprintf("%.1f", bias), len(trace),
			fmt.Sprintf("%.2f", workload.RepeatRate(trace)), noCache, cached,
			ratio(float64(noCache), float64(cached)))
	}
	t.Finding = "cached sessions pay one pass per attribute touched, not per distinct (function, attribute): the first read of a column keeps the states every later function on it finalizes from, so the saving no longer depends on the repeat rate"
	return t, nil
}

// E2Incremental sweeps column size for the incremental-vs-full
// recomputation comparison of Section 4.2.
func E2Incremental() (*Table, error) {
	t := &Table{
		ID:     "E2",
		Title:  "Incremental recomputation vs full recomputation per update",
		Claim:  "incremental update cost is O(1) per update vs O(N) recompute; gap grows linearly in N",
		Header: []string{"N", "updates", "values touched (full)", "values touched (incremental)", "reduction"},
	}
	const updates = 200
	for _, n := range []int{1000, 10000, 100000} {
		c := randomColumn(n, int64(n)*3)
		db := summary.NewDB(rules.NewManagementDB())
		fns := []string{"sum", "mean", "variance"}
		for _, fn := range fns {
			if _, err := db.Scalar(fn, "X", c.source()); err != nil {
				return nil, err
			}
		}
		fullTouched := int64(0)
		rng := rand.New(rand.NewSource(7))
		for u := 0; u < updates; u++ {
			i := rng.Intn(n)
			old := c.xs[i]
			nv := float64(rng.Intn(100000))
			c.xs[i] = nv
			db.OnUpdate("X", []incr.Delta{incr.UpdateOf(old, nv)})
			// Full path recomputes each function over the column.
			fullTouched += int64(len(fns) * n)
		}
		// Incremental path: the first fill read the column once for all
		// three functions, and each update re-finalized every function from
		// the one changed value.
		incrTouched := int64(c.passes*n) + db.Counters().Incremental
		// Verify correctness of the incremental values.
		wantMean, _ := stats.Mean(c.xs, nil) //lint:allow error-flow synthetic column is non-empty by construction
		gotMean, fresh := db.Lookup("mean", "X")
		if !fresh {
			return nil, fmt.Errorf("incremental mean went stale")
		}
		if d := gotMean.Scalar - wantMean; d > 1e-6 || d < -1e-6 {
			return nil, fmt.Errorf("incremental mean diverged: %g vs %g", gotMean.Scalar, wantMean)
		}
		t.AddRow(n, updates, fullTouched, incrTouched, ratio(float64(fullTouched), float64(incrTouched)))
	}
	t.Finding = "incremental cost is flat in N (initial build amortized); full recompute scales as N per update"
	return t, nil
}

// E3MedianWindow measures the Section 4.2 median technique: slides vs
// full recomputation, and the one-pass regeneration when the pointer
// runs off.
func E3MedianWindow() (*Table, error) {
	t := &Table{
		ID:     "E3",
		Title:  "Median histogram window vs full median recomputation",
		Claim:  "updates slide the pointer cheaply; when it runs off, one pass regenerates the window",
		Header: []string{"window width", "updates", "values touched (full recompute)", "values touched (window)", "rebuild passes", "reduction"},
	}
	const n, updates = 20000, 500
	for _, capacity := range []int{25, 100, 400} {
		c := randomColumn(n, 99)
		w, err := medwin.NewMedian(c.xs, nil, capacity)
		if err != nil {
			return nil, err
		}
		windowTouched := int64(n) // initial build
		rebuilds := 0
		// A sorted shadow of the column is the sanity oracle: moving one
		// value keeps it sorted, so the batch median below re-sorts
		// sorted input, which pdqsort finishes in one linear pass.
		sorted := append([]float64(nil), c.xs...)
		sort.Float64s(sorted)
		rng := rand.New(rand.NewSource(13))
		for u := 0; u < updates; u++ {
			i := rng.Intn(n)
			old := c.xs[i]
			nv := float64(rng.Intn(100000))
			c.xs[i] = nv
			at := sort.SearchFloat64s(sorted, old)
			sorted = slices.Delete(sorted, at, at+1)
			sorted = slices.Insert(sorted, sort.SearchFloat64s(sorted, nv), nv)
			if err := w.Delete(old); err != nil {
				return nil, err
			}
			w.Insert(nv)
			windowTouched += 2 // delete + insert against the window
			if w.NeedsRebuild() {
				w.Rebuild(c.xs, nil)
				windowTouched += int64(n)
				rebuilds++
			}
			// Sanity: the window median equals the batch median.
			got, err := w.Value()
			if err != nil {
				return nil, err
			}
			want, _ := stats.Median(sorted, nil) //lint:allow error-flow synthetic column is non-empty by construction
			if got != want {
				return nil, fmt.Errorf("window median diverged at update %d: %g vs %g", u, got, want)
			}
		}
		full := int64(updates) * int64(n)
		t.AddRow(capacity, updates, full, windowTouched, rebuilds, ratio(float64(full), float64(windowTouched)))
	}
	t.Finding = "wider windows absorb more drift before regenerating; even narrow windows beat per-update recomputation by orders of magnitude"
	return t, nil
}
