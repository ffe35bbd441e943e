package dataset

import (
	"testing"
	"testing/quick"
)

func exampleSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Attribute{Name: "SEX", Kind: KindString, Category: true},
		Attribute{Name: "RACE", Kind: KindString, Category: true},
		Attribute{Name: "AGE_GROUP", Kind: KindInt, Category: true},
		Attribute{Name: "POPULATION", Kind: KindInt, Summarizable: true},
		Attribute{Name: "AVE_SALARY", Kind: KindInt, Summarizable: true},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func TestSchemaBasics(t *testing.T) {
	s := exampleSchema(t)
	if got := s.Len(); got != 5 {
		t.Fatalf("Len = %d, want 5", got)
	}
	if got := s.Index("AGE_GROUP"); got != 2 {
		t.Errorf("Index(AGE_GROUP) = %d, want 2", got)
	}
	if got := s.Index("NOPE"); got != -1 {
		t.Errorf("Index(NOPE) = %d, want -1", got)
	}
	keys := s.CategoryAttributes()
	want := []string{"SEX", "RACE", "AGE_GROUP"}
	if len(keys) != len(want) {
		t.Fatalf("CategoryAttributes = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Errorf("key[%d] = %q, want %q", i, keys[i], want[i])
		}
	}
}

func TestSchemaErrors(t *testing.T) {
	if _, err := NewSchema(Attribute{Name: "", Kind: KindInt}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewSchema(Attribute{Name: "A"}); err == nil {
		t.Error("invalid kind accepted")
	}
	if _, err := NewSchema(
		Attribute{Name: "A", Kind: KindInt},
		Attribute{Name: "A", Kind: KindInt},
	); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestSchemaProjectAndExtend(t *testing.T) {
	s := exampleSchema(t)
	p, err := s.Project("AVE_SALARY", "SEX")
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if p.Len() != 2 || p.At(0).Name != "AVE_SALARY" || p.At(1).Name != "SEX" {
		t.Errorf("Project produced %s", p)
	}
	if _, err := s.Project("MISSING"); err == nil {
		t.Error("Project of missing attribute accepted")
	}
	e, err := s.Extend(Attribute{Name: "RESIDUAL", Kind: KindFloat, Derived: "residuals(model)"})
	if err != nil {
		t.Fatalf("Extend: %v", err)
	}
	if e.Len() != 6 || e.At(5).Name != "RESIDUAL" {
		t.Errorf("Extend produced %s", e)
	}
	if s.Len() != 5 {
		t.Error("Extend mutated the source schema")
	}
}

func TestAppendAndCell(t *testing.T) {
	d := New(exampleSchema(t))
	row := Row{String("M"), String("W"), Int(1), Int(12300347), Int(33122)}
	if err := d.Append(row); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if d.Rows() != 1 {
		t.Fatalf("Rows = %d, want 1", d.Rows())
	}
	if got := d.Cell(0, 3); got != Int(12300347) {
		t.Errorf("Cell(0,3) = %v", got)
	}
	got, err := d.CellByName(0, "AVE_SALARY")
	if err != nil || got != Int(33122) {
		t.Errorf("CellByName = %v, %v", got, err)
	}
	if _, err := d.CellByName(0, "X"); err == nil {
		t.Error("CellByName on missing attribute accepted")
	}
}

func TestAppendTypeErrorsRollBack(t *testing.T) {
	d := New(exampleSchema(t))
	// Third value has the wrong type; the row must not be partially applied.
	err := d.Append(Row{String("M"), String("W"), String("oops"), Int(1), Int(2)})
	if err == nil {
		t.Fatal("type-mismatched row accepted")
	}
	if d.Rows() != 0 {
		t.Fatalf("Rows = %d after failed append, want 0", d.Rows())
	}
	// A correct row must still work afterwards.
	if err := d.Append(Row{String("M"), String("W"), Int(1), Int(1), Int(2)}); err != nil {
		t.Fatalf("Append after failure: %v", err)
	}
	if d.Rows() != 1 {
		t.Fatalf("Rows = %d, want 1", d.Rows())
	}
}

func TestAppendArityError(t *testing.T) {
	d := New(exampleSchema(t))
	if err := d.Append(Row{Int(1)}); err == nil {
		t.Error("short row accepted")
	}
}

func TestMissingValues(t *testing.T) {
	d := New(exampleSchema(t))
	if err := d.Append(Row{String("M"), String("W"), Int(1), Null, Int(33122)}); err != nil {
		t.Fatalf("Append with null: %v", err)
	}
	if got := d.Cell(0, 3); !got.IsNull() {
		t.Errorf("Cell(0,3) = %v, want null", got)
	}
	if err := d.SetCell(0, 4, Null); err != nil {
		t.Fatalf("SetCell: %v", err)
	}
	if got := d.Cell(0, 4); !got.IsNull() {
		t.Errorf("after SetCell Cell(0,4) = %v", got)
	}
	n, err := d.MissingCount("AVE_SALARY")
	if err != nil || n != 1 {
		t.Errorf("MissingCount = %d, %v", n, err)
	}
}

func TestSetCell(t *testing.T) {
	d := New(exampleSchema(t))
	if err := d.Append(Row{String("M"), String("W"), Int(1), Int(10), Int(20)}); err != nil {
		t.Fatal(err)
	}
	if err := d.SetCell(0, 3, Int(99)); err != nil {
		t.Fatalf("SetCell: %v", err)
	}
	if got := d.Cell(0, 3); got != Int(99) {
		t.Errorf("Cell = %v", got)
	}
	if err := d.SetCell(5, 0, Int(1)); err == nil {
		t.Error("out-of-range row accepted")
	}
	if err := d.SetCell(0, 9, Int(1)); err == nil {
		t.Error("out-of-range column accepted")
	}
	if err := d.SetCell(0, 3, String("x")); err == nil {
		t.Error("type-mismatched set accepted")
	}
}

func TestIntWideningIntoFloatColumn(t *testing.T) {
	s := MustSchema(Attribute{Name: "X", Kind: KindFloat})
	d := New(s)
	if err := d.Append(Row{Int(7)}); err != nil {
		t.Fatalf("Append int into float column: %v", err)
	}
	if got := d.Cell(0, 0); got != Float(7) {
		t.Errorf("Cell = %v, want 7.0", got)
	}
}

func TestAddColumn(t *testing.T) {
	d := New(exampleSchema(t))
	for i := 0; i < 3; i++ {
		if err := d.Append(Row{String("M"), String("W"), Int(int64(i)), Int(10), Int(20)}); err != nil {
			t.Fatal(err)
		}
	}
	vals := []Value{Float(0.1), Null, Float(-0.3)}
	if err := d.AddColumn(Attribute{Name: "RESIDUAL", Kind: KindFloat, Derived: "residuals"}, vals); err != nil {
		t.Fatalf("AddColumn: %v", err)
	}
	if d.Schema().Len() != 6 {
		t.Fatalf("schema len = %d", d.Schema().Len())
	}
	if got := d.Cell(1, 5); !got.IsNull() {
		t.Errorf("Cell(1,5) = %v, want null", got)
	}
	if err := d.AddColumn(Attribute{Name: "BAD", Kind: KindFloat}, []Value{Float(1)}); err == nil {
		t.Error("wrong-length column accepted")
	}
}

func TestNumericColumn(t *testing.T) {
	d := New(exampleSchema(t))
	if err := d.Append(Row{String("M"), String("W"), Int(1), Int(10), Int(20)}); err != nil {
		t.Fatal(err)
	}
	f, valid, err := d.NumericByName("POPULATION")
	if err != nil {
		t.Fatalf("NumericByName: %v", err)
	}
	if len(f) != 1 || f[0] != 10 || !valid[0] {
		t.Errorf("NumericByName = %v %v", f, valid)
	}
	if _, _, err := d.NumericByName("SEX"); err == nil {
		t.Error("numeric access to string column accepted")
	}
	if _, _, err := d.NumericByName("NOPE"); err == nil {
		t.Error("numeric access to missing column accepted")
	}
}

func TestCodeTable(t *testing.T) {
	ct := NewCodeTable("AGE_GROUP").
		MustDefine(1, "0 to 20").
		MustDefine(2, "21 to 40").
		MustDefine(3, "41 to 60").
		MustDefine(4, "over 60")
	if ct.Len() != 4 {
		t.Fatalf("Len = %d", ct.Len())
	}
	if l, ok := ct.Decode(3); !ok || l != "41 to 60" {
		t.Errorf("Decode(3) = %q, %v", l, ok)
	}
	if c, ok := ct.codes["over 60"]; !ok || c != 4 {
		t.Errorf("codes = %d, %v", c, ok)
	}
	if _, ok := ct.Decode(9); ok {
		t.Error("Decode(9) succeeded")
	}
	// Rebinding a label to a different code is the census-vintage
	// inconsistency and must be rejected.
	if err := ct.Define(5, "over 60"); err == nil {
		t.Error("conflicting label rebinding accepted")
	}
	// Redefining a code replaces its label and frees the old label.
	if err := ct.Define(4, "60+"); err != nil {
		t.Fatalf("redefine: %v", err)
	}
	if _, ok := ct.codes["over 60"]; ok {
		t.Error("stale label still encodable")
	}
}

func TestValueStringRendering(t *testing.T) {
	if Null.String() != "NA" {
		t.Errorf("Null renders as %q", Null.String())
	}
	if Int(-7).String() != "-7" {
		t.Errorf("Int renders as %q", Int(-7).String())
	}
	if Float(2.5).String() != "2.5" {
		t.Errorf("Float renders as %q", Float(2.5).String())
	}
}

// Property: for any sequence of int64 values appended to a one-column
// data set, RowAt reads back exactly what was appended, in order.
func TestAppendReadbackProperty(t *testing.T) {
	f := func(vals []int64) bool {
		d := New(MustSchema(Attribute{Name: "X", Kind: KindInt}))
		for _, v := range vals {
			if err := d.Append(Row{Int(v)}); err != nil {
				return false
			}
		}
		if d.Rows() != len(vals) {
			return false
		}
		for i, v := range vals {
			if d.Cell(i, 0) != Int(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
