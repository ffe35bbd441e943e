package bench

import (
	"fmt"
	"math"
	"math/rand"

	"statdb/internal/abstract"
	"statdb/internal/dataset"
	"statdb/internal/incr"
	"statdb/internal/relalg"
	"statdb/internal/rules"
	"statdb/internal/stats"
	"statdb/internal/summary"
	"statdb/internal/view"
	"statdb/internal/workload"
)

// E7Policies compares the cache-maintenance policies of Section 4.3 under
// different query:update mixes, measuring full column passes.
func E7Policies() (*Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  "Cache maintenance policies under query/update mixes (column passes)",
		Claim:  "invalidate-lazily wins update-heavy mixes; per-function strategies win query-heavy mixes; recompute-always never wins",
		Header: []string{"mix (query:update)", "per-function", "invalidate-all", "recompute-all", "best"},
	}
	fns := []string{"mean", "sum", "min", "max", "median"}
	mixes := []struct {
		name    string
		queries int
		updates int
	}{
		{"9:1", 9, 1},
		{"1:1", 1, 1},
		{"1:9", 1, 9},
	}
	for _, mix := range mixes {
		passes := map[summary.Policy]int{}
		for _, pol := range []summary.Policy{summary.PolicyStrategies, summary.PolicyInvalidateAll, summary.PolicyRecomputeAll} {
			c := randomColumn(20000, 5)
			mdb := rules.NewManagementDB()
			db := summary.NewDB(mdb)
			db.SetPolicy(pol)
			rng := rand.New(rand.NewSource(11))
			const rounds = 40
			for r := 0; r < rounds; r++ {
				for q := 0; q < mix.queries; q++ {
					fn := fns[rng.Intn(len(fns))]
					if _, err := db.Scalar(fn, "X", c.source()); err != nil {
						return nil, err
					}
				}
				for u := 0; u < mix.updates; u++ {
					i := rng.Intn(len(c.xs))
					old := c.xs[i]
					nv := float64(rng.Intn(100000))
					c.xs[i] = nv
					db.OnUpdate("X", []incr.Delta{incr.UpdateOf(old, nv)})
				}
			}
			passes[pol] = c.passes
		}
		best := "per-function"
		bestV := passes[summary.PolicyStrategies]
		if passes[summary.PolicyInvalidateAll] < bestV {
			best, bestV = "invalidate-all", passes[summary.PolicyInvalidateAll]
		}
		if passes[summary.PolicyRecomputeAll] < bestV {
			best = "recompute-all"
		}
		t.AddRow(mix.name,
			passes[summary.PolicyStrategies],
			passes[summary.PolicyInvalidateAll],
			passes[summary.PolicyRecomputeAll],
			best)
	}
	t.Finding = "per-function strategies pay one or two passes in every mix: the first read keeps the states every function finalizes from, and a second is paid only when an update comes before median's first fill and drops the table no cached row read; invalidate-all pays a pass per refill after each update, recompute-all a pass per cached function per update"
	return t, nil
}

// E8Sampling quantifies the exploratory-analysis shortcut of Section 2.2:
// basing preliminary analysis on a random sample.
func E8Sampling() (*Table, error) {
	ds := workload.Microdata(200000, 31)
	xs, valid, err := ds.NumericByName("SALARY")
	if err != nil {
		return nil, err
	}
	pop, err := stats.Mean(xs, valid)
	if err != nil {
		return nil, err
	}
	popMed, _ := stats.Median(xs, valid) //lint:allow error-flow census SALARY is non-empty by construction
	t := &Table{
		ID:     "E8",
		Title:  "Sampling vs full scan for exploratory analysis",
		Claim:  "a small random sample is sufficient to form an impression; cost scales with the fraction, error with 1/sqrt(k)",
		Header: []string{"fraction", "values scanned", "mean rel. error %", "median rel. error %", "expected error % (1/sqrt k)"},
	}
	n := len(xs)
	for _, frac := range []float64{0.001, 0.01, 0.1, 1.0} {
		k := int(frac * float64(n))
		if k < 1 {
			k = 1
		}
		sample, err := stats.SampleValues(xs, valid, k, 77)
		if err != nil {
			return nil, err
		}
		sm, err := stats.Mean(sample, nil)
		if err != nil {
			return nil, err
		}
		smed, _ := stats.Median(sample, nil) //lint:allow error-flow sample size is >= 1 by construction
		meanErr := math.Abs(sm-pop) / pop * 100
		medErr := math.Abs(smed-popMed) / popMed * 100
		sd, _ := stats.StdDev(xs, valid) //lint:allow error-flow census SALARY is non-empty by construction
		expected := sd / math.Sqrt(float64(k)) / pop * 100
		t.AddRow(fmt.Sprintf("%.3f", frac), k,
			fmt.Sprintf("%.3f", meanErr), fmt.Sprintf("%.3f", medErr),
			fmt.Sprintf("%.3f", expected))
	}
	t.Finding = "observed errors track the 1/sqrt(k) envelope; a 1% sample answers exploratory questions at 1% of the scan cost"
	return t, nil
}

// E9DerivedRules measures the local-vs-global derived-attribute rules of
// Section 3.2: sum-of-row-values (local) vs regression residuals (global).
func E9DerivedRules() (*Table, error) {
	t := &Table{
		ID:     "E9",
		Title:  "Derived-attribute update rules: local vs global (cells recomputed)",
		Claim:  "a local rule recomputes one value per changed row; a global rule regenerates the entire vector",
		Header: []string{"rows N", "updates", "cells recomputed (local rule)", "cells recomputed (global rule)", "gap"},
	}
	for _, n := range []int{1000, 10000} {
		const updates = 50
		// Local rule: derived = SALARY / 1000 (row-local).
		localCells := int64(0)
		{
			md := workload.Microdata(n, 3)
			mdb := rules.NewManagementDB()
			v, err := view.New(md, mdb, rules.ViewDef{Name: "local", Analyst: "a", Source: "raw", Ops: []string{"x"}}, view.Options{})
			if err != nil {
				return nil, err
			}
			si := v.Dataset().Schema().Index("SALARY")
			err = v.AddDerived(
				dataset.Attribute{Name: "SAL_K", Kind: dataset.KindFloat, Summarizable: true},
				rules.DerivedRule{Inputs: []string{"SALARY"}, Scope: rules.ScopeLocal,
					Row: func(sch *dataset.Schema, row dataset.Row) dataset.Value {
						localCells++
						if row[si].IsNull() {
							return dataset.Null
						}
						return dataset.Float(row[si].AsFloat() / 1000)
					}})
			if err != nil {
				return nil, err
			}
			localCells = 0 // ignore the initial fill
			for u := 0; u < updates; u++ {
				if _, err := v.UpdateWhere("SALARY",
					relalg.Cmp{Attr: "ID", Op: relalg.Eq, Val: dataset.Int(int64(u))},
					dataset.Float(50000+float64(u))); err != nil {
					return nil, err
				}
			}
		}
		// Global rule: derived = residuals of SALARY ~ AGE.
		globalCells := int64(0)
		{
			md := workload.Microdata(n, 3)
			mdb := rules.NewManagementDB()
			v, err := view.New(md, mdb, rules.ViewDef{Name: "global", Analyst: "a", Source: "raw", Ops: []string{"x"}}, view.Options{})
			if err != nil {
				return nil, err
			}
			resid := func(ds *dataset.Dataset) ([]dataset.Value, error) {
				xs, xv, err := ds.NumericByName("AGE")
				if err != nil {
					return nil, err
				}
				ys, yv, err := ds.NumericByName("SALARY")
				if err != nil {
					return nil, err
				}
				reg, err := stats.LinearRegression(xs, ys, xv, yv)
				if err != nil {
					return nil, err
				}
				out := make([]dataset.Value, len(reg.Residuals))
				for i, r := range reg.Residuals {
					globalCells++
					if math.IsNaN(r) {
						out[i] = dataset.Null
					} else {
						out[i] = dataset.Float(r)
					}
				}
				return out, nil
			}
			err = v.AddDerived(
				dataset.Attribute{Name: "RESID", Kind: dataset.KindFloat, Summarizable: true},
				rules.DerivedRule{Inputs: []string{"SALARY", "AGE"}, Scope: rules.ScopeGlobal, Column: resid})
			if err != nil {
				return nil, err
			}
			globalCells = 0
			for u := 0; u < updates; u++ {
				if _, err := v.UpdateWhere("SALARY",
					relalg.Cmp{Attr: "ID", Op: relalg.Eq, Val: dataset.Int(int64(u))},
					dataset.Float(50000+float64(u))); err != nil {
					return nil, err
				}
			}
		}
		t.AddRow(n, updates, localCells, globalCells, ratio(float64(globalCells), float64(localCells)))
	}
	t.Finding = "local rules cost exactly one cell per changed row; global rules regenerate N cells per update batch — the model may change, so nothing less is sound"
	return t, nil
}

// E10Abstract compares Rowe's Database Abstract (estimates from stored
// values + inference rules) against the exact Summary Database.
func E10Abstract() (*Table, error) {
	ds := workload.Microdata(100000, 55)
	xs, valid, err := ds.NumericByName("SALARY")
	if err != nil {
		return nil, err
	}
	ab, err := abstract.Build(xs, valid, 50)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E10",
		Title:  "Database Abstract estimates vs Summary Database exact answers",
		Claim:  "the Abstract answers from stored values with bounded error; the Summary DB answers exactly but pays a pass on each miss",
		Header: []string{"function", "exact", "abstract estimate", "rel. error %", "within stated bound"},
	}
	exact := map[string]float64{}
	exact["mean"], _ = stats.Mean(xs, valid)         //lint:allow error-flow census SALARY is non-empty by construction
	exact["median"], _ = stats.Median(xs, valid)     //lint:allow error-flow census SALARY is non-empty by construction
	exact["q1"], _ = stats.Quantile(xs, valid, 0.25) //lint:allow error-flow census SALARY is non-empty by construction
	exact["q3"], _ = stats.Quantile(xs, valid, 0.75) //lint:allow error-flow census SALARY is non-empty by construction
	exact["sum"] = stats.Sum(xs, valid)
	for _, fn := range []string{"mean", "sum", "q1", "median", "q3"} {
		e, err := ab.Estimate(fn)
		if err != nil {
			return nil, err
		}
		relErr := math.Abs(e.Value-exact[fn]) / math.Abs(exact[fn]) * 100
		within := "yes"
		if !e.Exact && math.Abs(e.Value-exact[fn]) > e.Bound+1e-9 {
			within = "NO"
		}
		t.AddRow(fn, fmt.Sprintf("%.2f", exact[fn]), fmt.Sprintf("%.2f", e.Value),
			fmt.Sprintf("%.4f", relErr), within)
	}
	t.Finding = "stored moments are exact; order statistics inherit histogram-bin error but stay within the stated bound — estimates for free vs one pass per exact miss"
	return t, nil
}
