package workload

import (
	"testing"

	"statdb/internal/dataset"
)

func TestFigure1Reproduction(t *testing.T) {
	ds := Figure1()
	if ds.Rows() != 9 {
		t.Fatalf("rows = %d, want 9", ds.Rows())
	}
	names := ds.Schema().Names()
	want := []string{"SEX", "RACE", "AGE_GROUP", "POPULATION", "AVE_SALARY"}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("attribute %d = %q, want %q", i, names[i], want[i])
		}
	}
	keys := ds.Schema().CategoryAttributes()
	if len(keys) != 3 {
		t.Errorf("category attributes = %v", keys)
	}
	// Spot-check the printed rows.
	first := ds.RowAt(0)
	if !first[0].Equal(dataset.String("M")) || !first[3].Equal(dataset.Int(12300347)) || !first[4].Equal(dataset.Int(33122)) {
		t.Errorf("row 0 = %v", first)
	}
	last := ds.RowAt(8)
	if !last[1].Equal(dataset.String("B")) || !last[3].Equal(dataset.Int(2143924)) {
		t.Errorf("row 8 = %v", last)
	}
	// Composite key is unique across rows.
	seen := map[string]bool{}
	for i := 0; i < ds.Rows(); i++ {
		k := ds.Cell(i, 0).String() + "/" + ds.Cell(i, 1).String() + "/" + ds.Cell(i, 2).String()
		if seen[k] {
			t.Errorf("duplicate composite key %q", k)
		}
		seen[k] = true
	}
}

func TestFigure2CodeTable(t *testing.T) {
	ct := AgeGroupTable()
	if ct.Len() != 4 {
		t.Fatalf("codes = %d", ct.Len())
	}
	for code, want := range map[int64]string{1: "0 to 20", 2: "21 to 40", 3: "41 to 60", 4: "over 60"} {
		if got, ok := ct.Decode(code); !ok || got != want {
			t.Errorf("Decode(%d) = %q, %v", code, got, ok)
		}
	}
}

func TestCensusGenerator(t *testing.T) {
	spec := DefaultCensusSpec()
	ds, err := Census(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Rows() != spec.Rows() {
		t.Fatalf("rows = %d, want %d", ds.Rows(), spec.Rows())
	}
	// Deterministic per seed.
	ds2, _ := Census(spec)
	for i := 0; i < 50; i++ {
		for c := 0; c < ds.Schema().Len(); c++ {
			if !ds.Cell(i, c).Equal(ds2.Cell(i, c)) {
				t.Fatalf("non-deterministic at (%d,%d)", i, c)
			}
		}
	}
	spec2 := spec
	spec2.Seed = 999
	ds3, _ := Census(spec2)
	same := true
	for i := 0; i < 50 && same; i++ {
		if !ds.Cell(i, 5).Equal(ds3.Cell(i, 5)) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical measures")
	}
	// Measures positive.
	pop, _, err := ds.NumericByName("POPULATION")
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pop {
		if p < 100 {
			t.Fatalf("population[%d] = %g", i, p)
		}
	}
	// Bad specs rejected.
	if _, err := Census(CensusSpec{}); err == nil {
		t.Error("zero-cardinality spec accepted")
	}
}

func TestCensusCategoryRuns(t *testing.T) {
	// Generation order produces long runs in the leading category
	// attributes — the compression-friendly shape.
	ds, err := Census(DefaultCensusSpec())
	if err != nil {
		t.Fatal(err)
	}
	transitions := 0
	for i := 1; i < ds.Rows(); i++ {
		if !ds.Cell(i, 0).Equal(ds.Cell(i-1, 0)) {
			transitions++
		}
	}
	if transitions != 1 { // M block then F block
		t.Errorf("SEX transitions = %d, want 1", transitions)
	}
}

func TestMicrodata(t *testing.T) {
	ds := Microdata(1000, 7)
	if ds.Rows() != 1000 {
		t.Fatalf("rows = %d", ds.Rows())
	}
	ages, _, err := ds.NumericByName("AGE")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range ages {
		if a < 18 || a > 79 {
			t.Fatalf("age %g out of range", a)
		}
	}
	// The built-in AGE->SALARY relationship is strong enough to find.
	sal, _, _ := ds.NumericByName("SALARY")
	var maJunior, maSenior, nJ, nS float64
	for i := range ages {
		if ages[i] < 30 {
			maJunior += sal[i]
			nJ++
		} else if ages[i] > 60 {
			maSenior += sal[i]
			nS++
		}
	}
	if maSenior/nS <= maJunior/nJ {
		t.Error("salary does not grow with age")
	}
}

func TestInjectOutliers(t *testing.T) {
	ds := Microdata(2000, 8)
	rows, err := InjectOutliers(ds, "SALARY", 0.01, 100, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || len(rows) > 60 {
		t.Fatalf("outliers = %d", len(rows))
	}
	si := ds.Schema().Index("SALARY")
	for _, r := range rows {
		if ds.Cell(r, si).AsFloat() < 100000 {
			t.Errorf("row %d not an outlier: %v", r, ds.Cell(r, si))
		}
	}
	if _, err := InjectOutliers(ds, "NOPE", 0.1, 10, 1); err == nil {
		t.Error("missing attribute accepted")
	}
	if _, err := InjectOutliers(ds, "SALARY", 0, 10, 1); err == nil {
		t.Error("zero fraction accepted")
	}
}

func TestSessionTrace(t *testing.T) {
	spec := SessionSpec{
		Attrs: []string{"A", "B"}, Ops: 500, RepeatBias: 0.8, Seed: 3,
	}
	trace, err := Trace(spec)
	if err != nil || len(trace) != 500 {
		t.Fatalf("trace = %d ops, %v", len(trace), err)
	}
	rate := RepeatRate(trace)
	if rate < 0.5 {
		t.Errorf("repeat rate %g too low for bias 0.8", rate)
	}
	// With a wide (fn, attr) space, bias separates repeat rates; the
	// 2-attribute space above saturates from collisions alone.
	wide := make([]string, 40)
	for i := range wide {
		wide[i] = string(rune('A'+i%26)) + string(rune('0'+i/26))
	}
	hiSpec := SessionSpec{Attrs: wide, Ops: 200, RepeatBias: 0.8, Seed: 4}
	loSpec := hiSpec
	loSpec.RepeatBias = 0
	hi, _ := Trace(hiSpec)
	lo, _ := Trace(loSpec)
	if RepeatRate(lo) >= RepeatRate(hi) {
		t.Errorf("bias 0 rate %g >= bias 0.8 rate %g", RepeatRate(lo), RepeatRate(hi))
	}
	// Deterministic per seed.
	t2, _ := Trace(spec)
	for i := range trace {
		if trace[i] != t2[i] {
			t.Fatal("trace not deterministic")
		}
	}
}

func TestSessionTraceUpdates(t *testing.T) {
	spec := SessionSpec{Attrs: []string{"A"}, Ops: 100, UpdateEvery: 10, Seed: 1}
	trace, err := Trace(spec)
	if err != nil {
		t.Fatal(err)
	}
	updates := 0
	for _, op := range trace {
		if op.Fn == "update" {
			updates++
		}
	}
	if updates != 9 {
		t.Errorf("updates = %d, want 9", updates)
	}
}

func TestSessionTraceValidation(t *testing.T) {
	if _, err := Trace(SessionSpec{Ops: 10}); err == nil {
		t.Error("no attributes accepted")
	}
	if _, err := Trace(SessionSpec{Attrs: []string{"A"}, Ops: 0}); err == nil {
		t.Error("zero ops accepted")
	}
	if _, err := Trace(SessionSpec{Attrs: []string{"A"}, Ops: 1, RepeatBias: 1}); err == nil {
		t.Error("bias 1 accepted")
	}
}

// Rows returns the record count the spec generates.
func (s CensusSpec) Rows() int {
	return 2 * s.Regions * s.Races * s.AgeGroups * s.Educations
}
