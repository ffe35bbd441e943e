package view

import (
	"math"
	"testing"

	"statdb/internal/dataset"
	"statdb/internal/relalg"
	"statdb/internal/rules"
	"statdb/internal/stats"
	"statdb/internal/summary"
	"statdb/internal/tape"
)

func salarySchema() *dataset.Schema {
	return dataset.MustSchema(
		dataset.Attribute{Name: "ID", Kind: dataset.KindInt, Category: true},
		dataset.Attribute{Name: "SALARY", Kind: dataset.KindFloat, Summarizable: true},
		dataset.Attribute{Name: "AGE", Kind: dataset.KindInt, Summarizable: true},
	)
}

func salaryData(t testing.TB, n int) *dataset.Dataset {
	ds := dataset.New(salarySchema())
	for i := 0; i < n; i++ {
		if err := ds.Append(dataset.Row{
			dataset.Int(int64(i)),
			dataset.Float(float64(20000 + (i*137)%40000)),
			dataset.Int(int64(20 + i%50)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func newView(t testing.TB, n int, opts Options) *View {
	mdb := rules.NewManagementDB()
	v, err := New(salaryData(t, n), mdb, rules.ViewDef{
		Name: "test", Analyst: "a", Source: "raw", Ops: []string{"all"},
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestComputeAndCacheIntegration(t *testing.T) {
	v := newView(t, 500, Options{})
	m1, err := v.Compute("mean", "SALARY")
	if err != nil {
		t.Fatal(err)
	}
	xs, valid, _ := v.Dataset().NumericByName("SALARY")
	want, _ := stats.Mean(xs, valid)
	if m1 != want {
		t.Errorf("mean = %g, want %g", m1, want)
	}
	if _, err := v.Compute("mean", "NOPE"); err == nil {
		t.Error("missing attribute accepted")
	}
	// Category attribute rejected (meta-data guard, Section 3.2).
	if _, err := v.Compute("median", "ID"); err == nil {
		t.Error("summary over category attribute accepted")
	}
	// Cache hit.
	if _, err := v.Compute("mean", "SALARY"); err != nil {
		t.Fatal(err)
	}
	if v.Summary().Counters().Hits == 0 {
		t.Error("no cache hit recorded")
	}
}

func TestUpdateWherePropagates(t *testing.T) {
	v := newView(t, 200, Options{})
	before, err := v.Compute("mean", "SALARY")
	if err != nil {
		t.Fatal(err)
	}
	n, err := v.UpdateWhere("SALARY",
		relalg.Cmp{Attr: "SALARY", Op: Gt(), Val: dataset.Float(40000)},
		dataset.Float(40000))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no rows updated")
	}
	after, err := v.Compute("mean", "SALARY")
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("capping salaries did not lower the mean: %g -> %g", before, after)
	}
	xs, valid, _ := v.Dataset().NumericByName("SALARY")
	want, _ := stats.Mean(xs, valid)
	if diff := after - want; math.Abs(diff) > 1e-6 {
		t.Errorf("cached mean %g vs batch %g", after, want)
	}
	if v.History().Len() != 1 {
		t.Errorf("history len = %d", v.History().Len())
	}
	rec, _ := v.History().Last()
	if len(rec.Rows) != n || rec.Old.Len() != n {
		t.Errorf("history records %d rows, %d before-images for %d changed", len(rec.Rows), rec.Old.Len(), n)
	}
}

// Gt is a tiny helper so tests read naturally.
func Gt() relalg.Op { return relalg.Gt }

func TestInvalidateWhereMarksMissing(t *testing.T) {
	v := newView(t, 100, Options{})
	n, err := v.InvalidateWhere("SALARY", relalg.Cmp{Attr: "ID", Op: relalg.Lt, Val: dataset.Int(10)})
	if err != nil || n != 10 {
		t.Fatalf("invalidated %d, %v", n, err)
	}
	miss, _ := v.Dataset().MissingCount("SALARY")
	if miss != 10 {
		t.Errorf("missing = %d", miss)
	}
	cnt, err := v.Compute("count", "SALARY")
	if err != nil || cnt != 90 {
		t.Errorf("count = %g, %v", cnt, err)
	}
}

func TestUndoPhysical(t *testing.T) {
	v := newView(t, 100, Options{})
	orig := salaryData(t, 100)
	if _, err := v.Compute("mean", "SALARY"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.UpdateWhere("SALARY", relalg.All{}, dataset.Float(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := v.UpdateWhere("AGE", relalg.Cmp{Attr: "ID", Op: relalg.Eq, Val: dataset.Int(5)}, dataset.Int(99)); err != nil {
		t.Fatal(err)
	}
	// Undo the AGE update, then the SALARY update.
	if err := v.Undo(); err != nil {
		t.Fatal(err)
	}
	if err := v.Undo(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		for c := 0; c < 3; c++ {
			if v.Dataset().Cell(i, c) != orig.Cell(i, c) {
				t.Fatalf("cell (%d,%d) differs after undo", i, c)
			}
		}
	}
	// Summaries reflect the restored state.
	m, err := v.Compute("mean", "SALARY")
	if err != nil {
		t.Fatal(err)
	}
	xs, valid, _ := orig.NumericByName("SALARY")
	want, _ := stats.Mean(xs, valid)
	if math.Abs(m-want) > 1e-6 {
		t.Errorf("mean after undo = %g, want %g", m, want)
	}
	if err := v.Undo(); err == nil {
		t.Error("undo with empty history accepted")
	}
}

func TestRollbackTo(t *testing.T) {
	v := newView(t, 50, Options{})
	orig := salaryData(t, 50)
	var seqs []int64
	for i := 0; i < 4; i++ {
		if _, err := v.UpdateWhere("SALARY",
			relalg.Cmp{Attr: "ID", Op: relalg.Eq, Val: dataset.Int(int64(i))},
			dataset.Float(float64(1000*(i+1)))); err != nil {
			t.Fatal(err)
		}
		rec, _ := v.History().Last()
		seqs = append(seqs, rec.Seq)
	}
	// Roll back to after the second update: updates 3 and 4 undone.
	if err := v.RollbackTo(seqs[1]); err != nil {
		t.Fatal(err)
	}
	if v.History().Len() != 2 {
		t.Fatalf("history len = %d", v.History().Len())
	}
	got, _ := v.Dataset().CellByName(1, "SALARY")
	if got != dataset.Float(2000) {
		t.Errorf("update 2 lost: %v", got)
	}
	got, _ = v.Dataset().CellByName(2, "SALARY")
	if got != orig.Cell(2, 1) {
		t.Errorf("update 3 not undone: %v", got)
	}
	// Roll back everything.
	if err := v.RollbackTo(0); err != nil {
		t.Fatal(err)
	}
	if v.History().Len() != 0 {
		t.Errorf("history len = %d after full rollback", v.History().Len())
	}
	got, _ = v.Dataset().CellByName(0, "SALARY")
	if got != orig.Cell(0, 1) {
		t.Errorf("full rollback incomplete: %v", got)
	}
	// Idempotent on empty history.
	if err := v.RollbackTo(0); err != nil {
		t.Errorf("rollback on empty history: %v", err)
	}
}

func TestDerivedLocalRule(t *testing.T) {
	v := newView(t, 50, Options{})
	si := v.Dataset().Schema().Index("SALARY")
	err := v.AddDerived(
		dataset.Attribute{Name: "LOG_SALARY", Kind: dataset.KindFloat, Summarizable: true, Derived: "log(SALARY)"},
		rules.DerivedRule{
			Inputs: []string{"SALARY"}, Scope: rules.ScopeLocal,
			Row: func(sch *dataset.Schema, row dataset.Row) dataset.Value {
				if row[si].IsNull() {
					return dataset.Null
				}
				return dataset.Float(math.Log(row[si].AsFloat()))
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	lv, _ := v.Dataset().CellByName(3, "LOG_SALARY")
	sv, _ := v.Dataset().CellByName(3, "SALARY")
	if math.Abs(lv.AsFloat()-math.Log(sv.AsFloat())) > 1e-12 {
		t.Errorf("derived value wrong: %v vs log(%v)", lv, sv)
	}
	// Updating the input recomputes only affected rows (local scope).
	if _, err := v.UpdateWhere("SALARY", relalg.Cmp{Attr: "ID", Op: relalg.Eq, Val: dataset.Int(3)}, dataset.Float(2.718281828459045)); err != nil {
		t.Fatal(err)
	}
	lv, _ = v.Dataset().CellByName(3, "LOG_SALARY")
	if math.Abs(lv.AsFloat()-1) > 1e-9 {
		t.Errorf("derived not recomputed: %v", lv)
	}
	// Other rows untouched.
	lv, _ = v.Dataset().CellByName(4, "LOG_SALARY")
	sv, _ = v.Dataset().CellByName(4, "SALARY")
	if math.Abs(lv.AsFloat()-math.Log(sv.AsFloat())) > 1e-12 {
		t.Errorf("unrelated derived row disturbed")
	}
}

func TestDerivedGlobalRuleResiduals(t *testing.T) {
	v := newView(t, 100, Options{})
	residuals := func(ds *dataset.Dataset) ([]dataset.Value, error) {
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
			if math.IsNaN(r) {
				out[i] = dataset.Null
			} else {
				out[i] = dataset.Float(r)
			}
		}
		return out, nil
	}
	err := v.AddDerived(
		dataset.Attribute{Name: "RESIDUAL", Kind: dataset.KindFloat, Summarizable: true, Derived: "residuals(SALARY~AGE)"},
		rules.DerivedRule{Inputs: []string{"SALARY", "AGE"}, Scope: rules.ScopeGlobal, Column: residuals})
	if err != nil {
		t.Fatal(err)
	}
	r0, _ := v.Dataset().CellByName(0, "RESIDUAL")
	if r0.IsNull() {
		t.Fatal("residual missing")
	}
	// Any SALARY update regenerates the whole residual vector.
	if _, err := v.UpdateWhere("SALARY", relalg.Cmp{Attr: "ID", Op: relalg.Eq, Val: dataset.Int(0)}, dataset.Float(99999)); err != nil {
		t.Fatal(err)
	}
	r0b, _ := v.Dataset().CellByName(0, "RESIDUAL")
	if r0b == r0 {
		t.Error("residuals not regenerated after input update")
	}
	// Residuals must match a fresh regression on current data.
	want, err := residuals(v.Dataset())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < v.Rows(); i++ {
		got, _ := v.Dataset().CellByName(i, "RESIDUAL")
		if got != want[i] {
			t.Fatalf("residual %d stale: %v vs %v", i, got, want[i])
		}
	}
}

func TestAddDerivedValidation(t *testing.T) {
	v := newView(t, 10, Options{})
	err := v.AddDerived(dataset.Attribute{Name: "D", Kind: dataset.KindFloat},
		rules.DerivedRule{Inputs: []string{"MISSING"}, Scope: rules.ScopeLocal,
			Row: func(*dataset.Schema, dataset.Row) dataset.Value { return dataset.Null }})
	if err == nil {
		t.Error("derived rule with missing input accepted")
	}
}

// TestCachedCustomResults: a result over a tuple fills through the
// Summary Database once, is a hit until an update of either attribute,
// and then refills from the updated columns.
func TestCachedCustomResults(t *testing.T) {
	v := newView(t, 200, Options{})
	calls := 0
	corr := func() float64 {
		t.Helper()
		r, err := v.Result("correlation", []string{"SALARY", "AGE"}, func(xs [][]float64, valid [][]bool) (summary.Result, error) {
			calls++
			r, err := stats.Correlation(xs[0], xs[1], valid[0], valid[1])
			return summary.ScalarOf(r), err
		})
		if err != nil {
			t.Fatal(err)
		}
		return r.Scalar
	}
	fresh := func() float64 {
		xs, xv, _ := v.Column("SALARY")
		ys, yv, _ := v.Column("AGE")
		r, _ := stats.Correlation(xs, ys, xv, yv)
		return r
	}
	if got, want := corr(), fresh(); got != want {
		t.Fatalf("correlation = %v, want %v", got, want)
	}
	corr() // a hit: final is not called
	if calls != 1 {
		t.Errorf("calls = %d after a miss and a hit", calls)
	}
	for i, attr := range []string{"AGE", "SALARY"} {
		if _, err := v.UpdateWhere(attr, relalg.Cmp{Attr: "ID", Op: relalg.Lt, Val: dataset.Int(50)}, dataset.Int(int64(7+i))); err != nil {
			t.Fatal(err)
		}
		if got, want := corr(), fresh(); got != want || calls != 2+i {
			t.Errorf("after an update of %s: correlation = %v (%d computations), want %v", attr, got, calls, want)
		}
	}
}

func TestAdvice(t *testing.T) {
	v := newView(t, 100, Options{})
	// Column-heavy workload.
	for i := 0; i < 20; i++ {
		if _, _, err := v.Column("SALARY"); err != nil {
			t.Fatal(err)
		}
	}
	adv := v.Advice()
	if !adv.Transpose {
		t.Errorf("column-heavy advice = %+v", adv)
	}
	if len(adv.HotAttrs) != 1 || adv.HotAttrs[0] != "SALARY" {
		t.Errorf("hot attrs = %v", adv.HotAttrs)
	}
	// Row-heavy workload flips the advice.
	v2 := newView(t, 100, Options{})
	for i := 0; i < 50; i++ {
		rowAt(t, v2, i%100)
	}
	if v2.Advice().Transpose {
		t.Errorf("row-heavy advice = %+v", v2.Advice())
	}
}

func TestBuilderMaterialization(t *testing.T) {
	archive := tape.NewArchive(tape.DefaultCost())
	raw := salaryData(t, 300)
	if err := archive.Write("census", raw); err != nil {
		t.Fatal(err)
	}
	mdb := rules.NewManagementDB()
	v, err := NewBuilder(archive, mdb, "census").
		Select(relalg.Cmp{Attr: "AGE", Op: relalg.Ge, Val: dataset.Int(40)}).
		Project("ID", "SALARY", "AGE").
		Sort(relalg.SortKey{Attr: "SALARY"}).
		Build("elders", "boral")
	if err != nil {
		t.Fatal(err)
	}
	if v.Rows() == 0 || v.Rows() >= 300 {
		t.Fatalf("rows = %d", v.Rows())
	}
	// Sorted ascending.
	prev := -1.0
	for i := 0; i < v.Rows(); i++ {
		s, _ := v.Dataset().CellByName(i, "SALARY")
		if s.AsFloat() < prev {
			t.Fatal("not sorted")
		}
		prev = s.AsFloat()
	}
	// Registered in the management DB with its ops.
	def, ok := mdb.View("elders")
	if !ok || len(def.Ops) != 3 {
		t.Fatalf("def = %+v, %v", def, ok)
	}
	// Re-materializing the identical view is rejected before touching tape.
	archive.ResetStats()
	_, err = NewBuilder(archive, mdb, "census").
		Select(relalg.Cmp{Attr: "AGE", Op: relalg.Ge, Val: dataset.Int(40)}).
		Project("ID", "SALARY", "AGE").
		Sort(relalg.SortKey{Attr: "SALARY"}).
		Build("elders2", "boral")
	if err == nil {
		t.Fatal("duplicate derivation accepted")
	}
	if archive.Stats().Transfers != 0 {
		t.Errorf("duplicate rejection still read %d blocks from tape", archive.Stats().Transfers)
	}
}

func TestBuilderErrors(t *testing.T) {
	archive := tape.NewArchive(tape.DefaultCost())
	mdb := rules.NewManagementDB()
	if _, err := NewBuilder(archive, mdb, "missing").Build("v", "a"); err == nil {
		t.Error("missing source accepted")
	}
	raw := salaryData(t, 10)
	if err := archive.Write("census", raw); err != nil {
		t.Fatal(err)
	}
	if _, err := NewBuilder(archive, mdb, "census").
		Select(relalg.Cmp{Attr: "NOPE", Op: relalg.Eq, Val: dataset.Int(1)}).
		Build("v", "a"); err == nil {
		t.Error("bad predicate accepted")
	}
}
