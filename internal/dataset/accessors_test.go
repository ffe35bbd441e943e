package dataset

import (
	"strings"
	"testing"
)

func TestRowClone(t *testing.T) {
	r := Row{Int(1), String("x")}
	c := r.Clone()
	c[0] = Int(99)
	if !r[0].Equal(Int(1)) {
		t.Error("clone aliases original")
	}
}

func TestDatasetNameAndString(t *testing.T) {
	d := New(exampleSchema(t))
	if d.Name() != "" {
		t.Errorf("fresh name = %q", d.Name())
	}
	d.SetName("census")
	if d.Name() != "census" {
		t.Errorf("name = %q", d.Name())
	}
	_ = d.Append(Row{String("M"), String("W"), Int(1), Int(10), Int(20)})
	s := d.String()
	if !strings.Contains(s, "SEX") || !strings.Contains(s, "M") {
		t.Errorf("String = %q", s)
	}
	// Row cap in rendering.
	for i := 0; i < 30; i++ {
		_ = d.Append(Row{String("F"), String("B"), Int(int64(i)), Int(1), Int(2)})
	}
	if !strings.Contains(d.String(), "more rows") {
		t.Error("long dataset not truncated in String")
	}
}

func TestRowAtAndTypedAccessors(t *testing.T) {
	d := New(exampleSchema(t))
	_ = d.Append(Row{String("M"), String("W"), Int(3), Int(10), Null})
	row := d.RowAt(0)
	if !row[2].Equal(Int(3)) || !row[4].IsNull() {
		t.Errorf("RowAt = %v", row)
	}
	ints, valid := d.Ints(2)
	if ints[0] != 3 || !valid[0] {
		t.Errorf("Ints = %v %v", ints, valid)
	}
	strs, _ := d.Strings(0)
	if strs[0] != "M" {
		t.Errorf("Strings = %v", strs)
	}
	// Typed accessors panic on kind mismatch.
	assertPanics(t, func() { d.Ints(0) }, "Ints on string column")
	assertPanics(t, func() { d.Strings(2) }, "Strings on int column")
}

func assertPanics(t *testing.T, fn func(), what string) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestValueAccessorPanics(t *testing.T) {
	assertPanics(t, func() { String("x").AsInt() }, "AsInt on string")
	assertPanics(t, func() { Int(1).AsString() }, "AsString on int")
	assertPanics(t, func() { Null.AsFloat() }, "AsFloat on null")
	assertPanics(t, func() { String("x").Compare(Int(1)) }, "Compare string/int")
	if Int(1).Kind() != KindInt || Float(1).Kind() != KindFloat || String("").Kind() != KindString {
		t.Error("Kind accessors wrong")
	}
	if KindInvalid.String() != "invalid" || KindInt.String() != "int" ||
		KindFloat.String() != "float" || KindString.String() != "string" {
		t.Error("Kind strings wrong")
	}
}

func TestSchemaEqualAndString(t *testing.T) {
	a := exampleSchema(t)
	b := exampleSchema(t)
	if !a.Equal(b) {
		t.Error("identical schemas unequal")
	}
	short, _ := a.Project("SEX")
	if a.Equal(short) {
		t.Error("different lengths equal")
	}
	renamed := MustSchema(
		Attribute{Name: "X", Kind: KindString, Category: true},
		Attribute{Name: "RACE", Kind: KindString, Category: true},
		Attribute{Name: "AGE_GROUP", Kind: KindInt, Category: true},
		Attribute{Name: "POPULATION", Kind: KindInt},
		Attribute{Name: "AVE_SALARY", Kind: KindInt},
	)
	if a.Equal(renamed) {
		t.Error("renamed schema equal")
	}
	s := a.String()
	if !strings.Contains(s, "SEX string [key]") || !strings.Contains(s, "POPULATION int") {
		t.Errorf("schema String = %q", s)
	}
}

func TestCodeTableName(t *testing.T) {
	if NewCodeTable("AGE").Name() != "AGE" {
		t.Error("Name wrong")
	}
}
