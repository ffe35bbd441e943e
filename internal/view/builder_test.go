package view

import (
	"fmt"
	"testing"

	"statdb/internal/dataset"
	"statdb/internal/relalg"
	"statdb/internal/rules"
	"statdb/internal/tape"
	"statdb/internal/workload"
)

func TestBuilderDecodeAndGroupBy(t *testing.T) {
	archive := tape.NewArchive(tape.DefaultCost())
	if err := archive.Write("fig1", workload.Figure1()); err != nil {
		t.Fatal(err)
	}
	mdb := rules.NewManagementDB()
	v, err := NewBuilder(archive, mdb, "fig1").
		WithOptions(Options{UndoMode: UndoReplay}).
		Decode("AGE_GROUP").
		GroupBy([]string{"RACE", "AGE_GROUP"}, []relalg.Agg{
			{Func: relalg.AggSum, Attr: "POPULATION", As: "POPULATION"},
			{Func: relalg.AggWMean, Attr: "AVE_SALARY", Weight: "POPULATION", As: "AVE_SALARY"},
		}).
		Build("collapsed", "boral")
	if err != nil {
		t.Fatal(err)
	}
	// Figure 1 has W x {4 ages} + B x {1 age} = 5 groups.
	if v.Rows() != 5 {
		t.Fatalf("rows = %d", v.Rows())
	}
	// Decoded labels flowed through the group-by key.
	found := false
	for i := 0; i < v.Rows(); i++ {
		cell, err := v.Dataset().CellByName(i, "AGE_GROUP")
		if err != nil {
			t.Fatal(err)
		}
		if cell.Equal(dataset.String("over 60")) {
			found = true
		}
	}
	if !found {
		t.Error("decoded age label missing from groups")
	}
	// Ops recorded for the fingerprint.
	def, ok := mdb.View("collapsed")
	if !ok || len(def.Ops) != 2 {
		t.Fatalf("ops = %v", def.Ops)
	}
	if v.Name() != "collapsed" || v.Analyst() != "boral" {
		t.Errorf("identity = %s/%s", v.Name(), v.Analyst())
	}
}

// TestBuilderSelectThenGroupBy: a Select feeding a GroupBy runs as two
// steps. The expected rows were recorded from the Select→GroupBy fusion
// (selection vector, no intermediate data set) this replaced, on this
// fixture; Value.String renders floats round-trip exactly, so equal
// strings are equal bits.
func TestBuilderSelectThenGroupBy(t *testing.T) {
	census, err := workload.Census(workload.DefaultCensusSpec())
	if err != nil {
		t.Fatal(err)
	}
	archive := tape.NewArchive(tape.DefaultCost())
	if err := archive.Write("census", census); err != nil {
		t.Fatal(err)
	}
	v, err := NewBuilder(archive, rules.NewManagementDB(), "census").
		Select(relalg.Cmp{Attr: "EDUCATION", Op: relalg.Ge, Val: dataset.Int(5)}).
		GroupBy([]string{"SEX", "AGE_GROUP"}, []relalg.Agg{
			{Func: relalg.AggCount},
			{Func: relalg.AggSum, Attr: "POPULATION", As: "POPULATION"},
			{Func: relalg.AggWMean, Attr: "AVE_SALARY", Weight: "POPULATION", As: "AVE_SALARY"},
			{Func: relalg.AggMin, Attr: "AVE_SALARY"},
			{Func: relalg.AggMax, Attr: "AVE_SALARY"},
		}).
		Build("educated", "boral")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"[F 1 90 1.499265e+06 33359.82972723301 24372 40644]",
		"[F 2 90 1.89367e+06 35140.2260721245 29493 42695]",
		"[F 3 90 1.331254e+06 30619.60712756544 23489 37426]",
		"[F 4 90 1.399425e+06 32849.68398878111 26811 40328]",
		"[M 1 90 1.759202e+06 32716.022441425146 24583 40188]",
		"[M 2 90 1.432099e+06 35691.105902594725 27632 42066]",
		"[M 3 90 1.466903e+06 31328.834668004634 22260 39490]",
		"[M 4 90 1.526318e+06 33339.48273688707 26109 40976]",
	}
	if v.Rows() != len(want) {
		t.Fatalf("rows = %d, want %d", v.Rows(), len(want))
	}
	for i, w := range want {
		if got := fmt.Sprint(v.Dataset().RowAt(i)); got != w {
			t.Errorf("row %d = %s, want %s", i, got, w)
		}
	}
}

func TestUndoModeStrings(t *testing.T) {
	if UndoPhysical.String() != "physical" || UndoReplay.String() != "replay" {
		t.Error("undo mode strings wrong")
	}
	if BackingMemory.String() != "memory" || BackingRow.String() != "row" || BackingTransposed.String() != "transposed" {
		t.Error("backing strings wrong")
	}
}

func TestDescribe(t *testing.T) {
	v := newView(t, 400, Options{})
	s, err := v.Describe("SALARY")
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 400 || s.Missing != 0 {
		t.Errorf("N/Missing = %d/%d", s.N, s.Missing)
	}
	if s.Min >= s.Q1 || s.Q1 >= s.Median || s.Median >= s.Q3 || s.Q3 >= s.Max {
		t.Errorf("order statistics out of order: %+v", s)
	}
	if s.Unique < 2 || s.Mean <= 0 || s.SD <= 0 {
		t.Errorf("summary = %+v", s)
	}
	// Missing values counted after invalidation.
	if _, err := v.InvalidateWhere("SALARY",
		relalg.Cmp{Attr: "ID", Op: relalg.Lt, Val: dataset.Int(10)}); err != nil {
		t.Fatal(err)
	}
	s, err = v.Describe("SALARY")
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 390 || s.Missing != 10 {
		t.Errorf("after invalidation: N=%d Missing=%d", s.N, s.Missing)
	}
	if _, err := v.Describe("NOPE"); err == nil {
		t.Error("describe of missing attribute accepted")
	}
	// Fully-invalidated column errors with no data.
	if _, err := v.InvalidateWhere("SALARY", relalg.All{}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Describe("SALARY"); err == nil {
		t.Error("describe of empty column accepted")
	}
}

func TestStringFrequenciesAndInconsistentPairs(t *testing.T) {
	archive := tape.NewArchive(tape.DefaultCost())
	if err := archive.Write("fig1", workload.Figure1()); err != nil {
		t.Fatal(err)
	}
	mdb := rules.NewManagementDB()
	v, err := NewBuilder(archive, mdb, "fig1").Build("all", "a")
	if err != nil {
		t.Fatal(err)
	}
	values, counts, err := v.StringFrequencies("SEX")
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 2 || values[0] != "M" || counts[0] != 5 {
		t.Errorf("frequencies = %v %v", values, counts)
	}
	if _, _, err := v.StringFrequencies("POPULATION"); err == nil {
		t.Error("numeric attribute accepted")
	}
	if _, _, err := v.StringFrequencies("NOPE"); err == nil {
		t.Error("missing attribute accepted")
	}

	// Pair check: "population must exceed salary" holds for every Fig 1
	// row except none — use an artificial rule that flags low-population
	// rows.
	bad, err := v.InconsistentPairs("POPULATION", "AVE_SALARY", func(a, b dataset.Value) bool {
		return a.AsFloat() > 100*b.AsFloat()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Row M/B/1: 2,143,924 vs 29,402*100 = 2,940,200 -> inconsistent.
	if len(bad) != 1 || bad[0] != 8 {
		t.Errorf("inconsistent rows = %v", bad)
	}
	if _, err := v.InconsistentPairs("NOPE", "AVE_SALARY", nil); err == nil {
		t.Error("missing attribute accepted")
	}
	// Missing values are skipped.
	if _, err := v.InvalidateWhere("POPULATION",
		relalg.Cmp{Attr: "RACE", Op: relalg.Eq, Val: dataset.String("B")}); err != nil {
		t.Fatal(err)
	}
	bad, err = v.InconsistentPairs("POPULATION", "AVE_SALARY", func(a, b dataset.Value) bool {
		return a.AsFloat() > 100*b.AsFloat()
	})
	if err != nil || len(bad) != 0 {
		t.Errorf("after invalidation: %v, %v", bad, err)
	}
}

func TestComputeRejectsStringAttributes(t *testing.T) {
	// A summarizable string attribute must still be refused: scalar
	// statistics are numeric; frequency tables serve strings.
	sch := dataset.MustSchema(
		dataset.Attribute{Name: "NAME", Kind: dataset.KindString, Summarizable: true},
	)
	ds := dataset.New(sch)
	_ = ds.Append(dataset.Row{dataset.String("x")})
	mdb := rules.NewManagementDB()
	v, err := New(ds, mdb, rules.ViewDef{Name: "s", Analyst: "a", Source: "raw", Ops: []string{"x"}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Compute("count", "NAME"); err == nil {
		t.Error("scalar over string attribute accepted")
	}
}
