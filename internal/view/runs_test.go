package view

import (
	"math"
	"testing"

	"statdb/internal/dataset"
	"statdb/internal/obs"
	"statdb/internal/rules"
)

// runsSchema pairs a low-cardinality summarizable column (long runs, so
// SuggestEncodings picks RLE and the planner routes it to the run
// kernels) with a high-cardinality one that must stay on the row path.
func runsSchema() *dataset.Schema {
	return dataset.MustSchema(
		dataset.Attribute{Name: "GRADE", Kind: dataset.KindInt, Summarizable: true},
		dataset.Attribute{Name: "NOISE", Kind: dataset.KindFloat, Summarizable: true},
	)
}

func runsData(t testing.TB, n int) *dataset.Dataset {
	ds := dataset.New(runsSchema())
	for i := 0; i < n; i++ {
		row := dataset.Row{
			dataset.Int(int64(i / 400 * 25)), // ~n/400 long runs, integer values
			dataset.Float(float64((i*137)%4001 - 2000)),
		}
		if i%379 == 0 {
			row[0] = dataset.Null // null rows split runs but stay rare
		}
		if err := ds.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func newRunsView(t testing.TB, n int) *View {
	mdb := rules.NewManagementDB()
	v, err := New(runsData(t, n), mdb, rules.ViewDef{
		Name: "runs", Analyst: "a", Source: "raw", Ops: []string{"all"},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestComputeRunStrategyMatchesRowPath: every scalar the run kernels can
// serve must equal the row path's answer — bit for bit on this
// integer-valued column for the order statistics and exact sums, to ulps
// for the regrouped variance — and the strategy counters must show each
// view took the path it was configured for.
func TestComputeRunStrategyMatchesRowPath(t *testing.T) {
	const n = 4000
	vRun := newRunsView(t, n)
	vRow := newRunsView(t, n)
	vRow.runThreshold = -1 // below any runs/rows ratio: the run strategy never fires
	regRun, regRow := vRun.Summary().Metrics(), vRow.Summary().Metrics()
	attach(t, vRun, BackingTransposed)
	attach(t, vRow, BackingTransposed)

	fns := []string{"count", "sum", "mean", "min", "max", "median", "q1", "q3", "unique", "mode", "variance", "sd"}
	for _, fn := range fns {
		got, err := vRun.Compute(fn, "GRADE")
		if err != nil {
			t.Fatalf("run path %s: %v", fn, err)
		}
		want, err := vRow.Compute(fn, "GRADE")
		if err != nil {
			t.Fatalf("row path %s: %v", fn, err)
		}
		if fn == "variance" || fn == "sd" {
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Errorf("%s: run %g != row %g", fn, got, want)
			}
		} else if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: run %g != row %g", fn, got, want)
		}
	}

	if hits := regRun.Counter(obs.MExecRunStrategyHits).Value(); hits == 0 {
		t.Error("enabled view never took the run strategy")
	}
	if folded := regRun.Counter(obs.MExecRunsFolded).Value(); folded == 0 {
		t.Error("enabled view folded no runs")
	}
	if hits := regRow.Counter(obs.MExecRunStrategyHits).Value(); hits != 0 {
		t.Errorf("disabled view took the run strategy %d times", hits)
	}
	if dec := regRow.Counter(obs.MExecRowsDecoded).Value(); dec == 0 {
		t.Error("disabled view decoded no rows")
	}
}

// TestComputeRunStrategySkipsPlainColumns: a high-cardinality column is
// stored Plain, so even the run-enabled view must serve it off the row
// path.
func TestComputeRunStrategySkipsPlainColumns(t *testing.T) {
	v := newRunsView(t, 4000)
	reg := v.Summary().Metrics()
	attach(t, v, BackingTransposed)
	if _, err := v.Compute("mean", "NOISE"); err != nil {
		t.Fatal(err)
	}
	if hits := reg.Counter(obs.MExecRunStrategyHits).Value(); hits != 0 {
		t.Errorf("Plain column routed to run kernels %d times", hits)
	}
	if dec := reg.Counter(obs.MExecRowsDecoded).Value(); dec == 0 {
		t.Error("Plain column decoded no rows")
	}
}

// TestComputeRunStrategyThreshold: a ratio ceiling below the column's
// runs/rows keeps the planner on the row path; without an attached store
// the run source never exists at all.
func TestComputeRunStrategyThreshold(t *testing.T) {
	// GRADE has ~30 runs over 4000 rows (ratio ~0.008); a ceiling of
	// 0.001 is under that, so the strategy must not fire.
	v := newRunsView(t, 4000)
	v.runThreshold = 0.001
	reg := v.Summary().Metrics()
	attach(t, v, BackingTransposed)
	if _, err := v.Compute("mean", "GRADE"); err != nil {
		t.Fatal(err)
	}
	if hits := reg.Counter(obs.MExecRunStrategyHits).Value(); hits != 0 {
		t.Errorf("over-threshold column routed to run kernels %d times", hits)
	}

	mem := newRunsView(t, 1000) // no store attached
	reg2 := mem.Summary().Metrics()
	if _, err := mem.Compute("mean", "GRADE"); err != nil {
		t.Fatal(err)
	}
	if hits := reg2.Counter(obs.MExecRunStrategyHits).Value(); hits != 0 {
		t.Errorf("storeless view routed to run kernels %d times", hits)
	}
}
