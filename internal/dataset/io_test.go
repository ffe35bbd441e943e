package dataset

import (
	"bytes"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	d := New(exampleSchema(t))
	rows := []Row{
		{String("M"), String("W"), Int(1), Int(12300347), Int(33122)},
		{String("F"), String("B"), Int(2), Null, Int(-5)},
	}
	for _, r := range rows {
		if err := d.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, d.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 2 {
		t.Fatalf("rows = %d", got.Rows())
	}
	for i := range rows {
		for c := range rows[i] {
			if got.Cell(i, c) != rows[i][c] {
				t.Errorf("cell (%d,%d): %v != %v", i, c, got.Cell(i, c), rows[i][c])
			}
		}
	}
}

func TestReadCSVColumnReordering(t *testing.T) {
	sch := MustSchema(
		Attribute{Name: "A", Kind: KindInt},
		Attribute{Name: "B", Kind: KindString},
	)
	in := "B,EXTRA,A\nhello,ignored,42\n"
	got, err := ReadCSV(strings.NewReader(in), sch)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cell(0, 0) != Int(42) || got.Cell(0, 1) != String("hello") {
		t.Errorf("row = %v", got.RowAt(0))
	}
}

func TestReadCSVErrors(t *testing.T) {
	sch := MustSchema(Attribute{Name: "A", Kind: KindInt})
	cases := []string{
		"",                // no header
		"B\n1\n",          // missing attribute
		"A\nnot-a-number", // bad cell
	}
	for _, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in), sch); err == nil {
			t.Errorf("ReadCSV(%q) accepted", in)
		}
	}
}

func TestReadCSVMissingValues(t *testing.T) {
	sch := MustSchema(
		Attribute{Name: "A", Kind: KindInt},
		Attribute{Name: "B", Kind: KindFloat},
	)
	got, err := ReadCSV(strings.NewReader("A,B\n,NA\n7,1.5\n"), sch)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Cell(0, 0).IsNull() || !got.Cell(0, 1).IsNull() {
		t.Errorf("row 0 = %v", got.RowAt(0))
	}
	if got.Cell(1, 1) != Float(1.5) {
		t.Errorf("row 1 = %v", got.RowAt(1))
	}
}

func TestInferSchemaFromCSV(t *testing.T) {
	in := "id,score,name,age\n1,3.5,bob,\n2,4,alice,30\n"
	sch, err := InferSchemaFromCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := map[string]Kind{"id": KindInt, "score": KindFloat, "name": KindString, "age": KindInt}
	for name, kind := range wantKinds {
		a, ok := sch.Lookup(name)
		if !ok || a.Kind != kind {
			t.Errorf("%s: kind = %v, want %v (found=%v)", name, a.Kind, kind, ok)
		}
	}
	// Numeric columns are summarizable, strings are not.
	a, _ := sch.Lookup("score")
	if !a.Summarizable {
		t.Error("score not summarizable")
	}
	a, _ = sch.Lookup("name")
	if a.Summarizable {
		t.Error("name summarizable")
	}
	// End-to-end: infer then read.
	ds, err := ReadCSV(strings.NewReader(in), sch)
	if err != nil || ds.Rows() != 2 {
		t.Fatalf("read after infer: %d rows, %v", ds.Rows(), err)
	}
	if !ds.Cell(0, 3).IsNull() {
		t.Error("empty age not null")
	}
}

func TestInferSchemaErrors(t *testing.T) {
	if _, err := InferSchemaFromCSV(strings.NewReader("")); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := InferSchemaFromCSV(strings.NewReader("a,a\n1,2\n")); err == nil {
		t.Error("duplicate header accepted")
	}
}
