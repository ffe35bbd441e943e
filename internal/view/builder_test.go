package view

import (
	"testing"

	"statdb/internal/dataset"
	"statdb/internal/relalg"
	"statdb/internal/rules"
	"statdb/internal/tape"
	"statdb/internal/workload"
)

func TestBuilderDecode(t *testing.T) {
	archive := tape.NewArchive(tape.DefaultCost())
	if err := archive.Write("fig1", workload.Figure1()); err != nil {
		t.Fatal(err)
	}
	mdb := rules.NewManagementDB()
	v, err := NewBuilder(archive, mdb, "fig1").
		Decode("AGE_GROUP").
		Sort(relalg.SortKey{Attr: "AGE_GROUP"}).
		Build("decoded", "boral")
	if err != nil {
		t.Fatal(err)
	}
	if v.Rows() != 9 {
		t.Fatalf("rows = %d", v.Rows())
	}
	// Decoded labels replaced the codes and flowed through the sort.
	found := false
	for i := 0; i < v.Rows(); i++ {
		cell, err := v.Dataset().CellByName(i, "AGE_GROUP")
		if err != nil {
			t.Fatal(err)
		}
		if cell == dataset.String("over 60") {
			found = true
		}
	}
	if !found {
		t.Error("decoded age label missing")
	}
	// Ops recorded for the fingerprint.
	def, ok := mdb.View("decoded")
	if !ok || len(def.Ops) != 2 {
		t.Fatalf("ops = %v", def.Ops)
	}
	if v.Name() != "decoded" || v.analyst != "boral" {
		t.Errorf("identity = %s/%s", v.Name(), v.analyst)
	}
}

func TestBackingStrings(t *testing.T) {
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

func TestStringFrequencies(t *testing.T) {
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
