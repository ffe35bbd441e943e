package relalg

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"statdb/internal/dataset"
)

// figure1 builds the paper's Figure 1 example data set.
func figure1(t testing.TB) *dataset.Dataset {
	ageCode := dataset.NewCodeTable("AGE_GROUP").
		MustDefine(1, "0 to 20").
		MustDefine(2, "21 to 40").
		MustDefine(3, "41 to 60").
		MustDefine(4, "over 60")
	sch := dataset.MustSchema(
		dataset.Attribute{Name: "SEX", Kind: dataset.KindString, Category: true},
		dataset.Attribute{Name: "RACE", Kind: dataset.KindString, Category: true},
		dataset.Attribute{Name: "AGE_GROUP", Kind: dataset.KindInt, Category: true, Code: ageCode},
		dataset.Attribute{Name: "POPULATION", Kind: dataset.KindInt, Summarizable: true},
		dataset.Attribute{Name: "AVE_SALARY", Kind: dataset.KindInt, Summarizable: true},
	)
	ds := dataset.New(sch)
	rows := [][5]any{
		{"M", "W", 1, 12300347, 33122},
		{"M", "W", 2, 21342193, 25883},
		{"M", "W", 3, 18989987, 42919},
		{"M", "W", 4, 9342193, 15110},
		{"F", "W", 1, 15821497, 31762},
		{"F", "W", 2, 33422988, 29933},
		{"F", "W", 3, 29734121, 28218},
		{"F", "W", 4, 20812211, 17498},
		{"M", "B", 1, 2143924, 29402},
	}
	for _, r := range rows {
		if err := ds.Append(dataset.Row{
			dataset.String(r[0].(string)),
			dataset.String(r[1].(string)),
			dataset.Int(int64(r[2].(int))),
			dataset.Int(int64(r[3].(int))),
			dataset.Int(int64(r[4].(int))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func TestSelect(t *testing.T) {
	ds := figure1(t)
	got, err := Select(ds, Cmp{Attr: "SEX", Op: Eq, Val: dataset.String("M")})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 5 {
		t.Fatalf("rows = %d, want 5", got.Rows())
	}
	got, err = Select(ds, And{
		Cmp{Attr: "SEX", Op: Eq, Val: dataset.String("M")},
		Cmp{Attr: "AVE_SALARY", Op: Gt, Val: dataset.Int(30000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 2 { // 33122 and 42919
		t.Fatalf("rows = %d, want 2", got.Rows())
	}
	got, err = Select(ds, Or{
		Cmp{Attr: "RACE", Op: Eq, Val: dataset.String("B")},
		Cmp{Attr: "AGE_GROUP", Op: Ge, Val: dataset.Int(4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 3 {
		t.Fatalf("rows = %d, want 3", got.Rows())
	}
	got, err = Select(ds, Not{Cmp{Attr: "SEX", Op: Eq, Val: dataset.String("M")}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 4 {
		t.Fatalf("rows = %d, want 4", got.Rows())
	}
	if _, err := Select(ds, Cmp{Attr: "NOPE", Op: Eq, Val: dataset.Int(1)}); err == nil {
		t.Error("missing attribute accepted")
	}
	if _, err := Select(ds, Cmp{Attr: "SEX", Op: Eq, Val: dataset.Int(1)}); err == nil {
		t.Error("type-mismatched comparison accepted")
	}
}

func TestSelectNullSemantics(t *testing.T) {
	ds := figure1(t)
	if err := ds.SetCell(0, 4, dataset.Null); err != nil {
		t.Fatal(err)
	}
	// Null never satisfies a comparison, even Ne.
	got, err := Select(ds, Cmp{Attr: "AVE_SALARY", Op: Ne, Val: dataset.Int(-1)})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 8 {
		t.Errorf("Ne rows = %d, want 8", got.Rows())
	}
	got, err = Select(ds, IsNull{Attr: "AVE_SALARY"})
	if err != nil || got.Rows() != 1 {
		t.Errorf("IsNull rows = %d, %v", got.Rows(), err)
	}
	got, err = Select(ds, NotNull{Attr: "AVE_SALARY"})
	if err != nil || got.Rows() != 8 {
		t.Errorf("NotNull rows = %d, %v", got.Rows(), err)
	}
}

func TestNumericCrossKindCompare(t *testing.T) {
	ds := figure1(t)
	got, err := Select(ds, Cmp{Attr: "AVE_SALARY", Op: Lt, Val: dataset.Float(20000.5)})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 2 { // 15110 and 17498
		t.Errorf("rows = %d, want 2", got.Rows())
	}
}

func TestProject(t *testing.T) {
	ds := figure1(t)
	got, err := Project(ds, "AVE_SALARY", "SEX")
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema().Len() != 2 || got.Rows() != 9 {
		t.Fatalf("shape = %dx%d", got.Rows(), got.Schema().Len())
	}
	if got.Cell(0, 0) != dataset.Int(33122) || got.Cell(0, 1) != dataset.String("M") {
		t.Errorf("row 0 = %v %v", got.Cell(0, 0), got.Cell(0, 1))
	}
	if _, err := Project(ds, "NOPE"); err == nil {
		t.Error("missing attribute accepted")
	}
}

func TestJoinDecodesFigure2(t *testing.T) {
	ds := figure1(t)
	code := figure2(ds.Schema().At(2).Code)
	got, err := Join(ds, code, "AGE_GROUP", "CATEGORY")
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 9 {
		t.Fatalf("rows = %d", got.Rows())
	}
	vi := got.Schema().Index("VALUE")
	if vi < 0 {
		t.Fatalf("no VALUE column: %s", got.Schema())
	}
	v, _ := got.CellByName(0, "VALUE")
	if v != dataset.String("0 to 20") {
		t.Errorf("decoded value = %v", v)
	}
	v, _ = got.CellByName(3, "VALUE")
	if v != dataset.String("over 60") {
		t.Errorf("decoded value = %v", v)
	}
}

func TestJoinErrorsAndNulls(t *testing.T) {
	ds := figure1(t)
	code := figure2(ds.Schema().At(2).Code)
	if _, err := Join(ds, code, "NOPE", "CATEGORY"); err == nil {
		t.Error("missing left attribute accepted")
	}
	if _, err := Join(ds, code, "AGE_GROUP", "NOPE"); err == nil {
		t.Error("missing right attribute accepted")
	}
	// Null join keys produce no matches.
	if err := ds.SetCell(0, 2, dataset.Null); err != nil {
		t.Fatal(err)
	}
	got, err := Join(ds, code, "AGE_GROUP", "CATEGORY")
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 8 {
		t.Errorf("rows = %d, want 8 (null key dropped)", got.Rows())
	}
}

func TestJoinNameCollision(t *testing.T) {
	a := dataset.New(dataset.MustSchema(
		dataset.Attribute{Name: "K", Kind: dataset.KindInt},
		dataset.Attribute{Name: "V", Kind: dataset.KindInt},
	))
	b := dataset.New(dataset.MustSchema(
		dataset.Attribute{Name: "K", Kind: dataset.KindInt},
		dataset.Attribute{Name: "V", Kind: dataset.KindInt},
	))
	_ = a.Append(dataset.Row{dataset.Int(1), dataset.Int(10)})
	_ = b.Append(dataset.Row{dataset.Int(1), dataset.Int(20)})
	got, err := Join(a, b, "K", "K")
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema().Index("right_V") < 0 {
		t.Errorf("collision not renamed: %s", got.Schema())
	}
	v, _ := got.CellByName(0, "right_V")
	if v != dataset.Int(20) {
		t.Errorf("right_V = %v", v)
	}
}

func TestDecode(t *testing.T) {
	ds := figure1(t)
	got, err := Decode(ds, "AGE_GROUP")
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema().At(2).Kind != dataset.KindString {
		t.Fatalf("decoded kind = %s", got.Schema().At(2).Kind)
	}
	if got.Cell(3, 2) != dataset.String("over 60") {
		t.Errorf("cell = %v", got.Cell(3, 2))
	}
	if _, err := Decode(ds, "SEX"); err == nil {
		t.Error("decode of un-coded attribute accepted")
	}
	if _, err := Decode(ds, "NOPE"); err == nil {
		t.Error("decode of missing attribute accepted")
	}
	// Unknown code is an error.
	bad := figure1(t)
	if err := bad.SetCell(0, 2, dataset.Int(99)); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bad, "AGE_GROUP"); err == nil {
		t.Error("unknown code decoded")
	}
	// Null codes pass through.
	withNull := figure1(t)
	if err := withNull.SetCell(0, 2, dataset.Null); err != nil {
		t.Fatal(err)
	}
	got, err = Decode(withNull, "AGE_GROUP")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Cell(0, 2).IsNull() {
		t.Errorf("null code decoded to %v", got.Cell(0, 2))
	}
}

// TestGroupByPaperExample reproduces the Section 2.2 aggregation: collapse
// M and F within each RACE/AGE_GROUP partition by adding populations and
// forming the population-weighted average of the two AVE_SALARY values.
func TestGroupByPaperExample(t *testing.T) {
	ds := figure1(t)
	got, err := GroupBy(ds, []string{"RACE", "AGE_GROUP"}, []Agg{
		{Func: AggSum, Attr: "POPULATION", As: "POPULATION"},
		{Func: AggWMean, Attr: "AVE_SALARY", Weight: "POPULATION", As: "AVE_SALARY"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Groups: (B,1), (W,1), (W,2), (W,3), (W,4) — ordered by key.
	if got.Rows() != 5 {
		t.Fatalf("groups = %d, want 5\n%s", got.Rows(), got)
	}
	// (W,1): POPULATION = 12300347+15821497, weighted AVE_SALARY.
	pop, _ := got.CellByName(1, "POPULATION")
	wantPop := 12300347.0 + 15821497.0
	if pop.AsFloat() != wantPop {
		t.Errorf("POPULATION = %v, want %v", pop, wantPop)
	}
	sal, _ := got.CellByName(1, "AVE_SALARY")
	wantSal := (33122.0*12300347 + 31762.0*15821497) / wantPop
	if diff := sal.AsFloat() - wantSal; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("AVE_SALARY = %v, want %v", sal, wantSal)
	}
	// (B,1) group has the single male row.
	race, _ := got.CellByName(0, "RACE")
	if race != dataset.String("B") {
		t.Errorf("first group race = %v", race)
	}
}

func TestGroupByAggregates(t *testing.T) {
	ds := figure1(t)
	got, err := GroupBy(ds, []string{"SEX"}, []Agg{
		{Func: AggCount},
		{Func: AggMin, Attr: "AVE_SALARY"},
		{Func: AggMax, Attr: "AVE_SALARY"},
		{Func: AggMean, Attr: "AVE_SALARY"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 2 {
		t.Fatalf("groups = %d", got.Rows())
	}
	// F group first (sorted), 4 rows.
	cnt, _ := got.CellByName(0, "count")
	if cnt != dataset.Int(4) {
		t.Errorf("F count = %v", cnt)
	}
	mn, _ := got.CellByName(0, "min_AVE_SALARY")
	if mn != dataset.Int(17498) {
		t.Errorf("F min = %v", mn)
	}
	mx, _ := got.CellByName(1, "max_AVE_SALARY")
	if mx != dataset.Int(42919) {
		t.Errorf("M max = %v", mx)
	}
	mean, _ := got.CellByName(1, "mean_AVE_SALARY")
	want := (33122.0 + 25883 + 42919 + 15110 + 29402) / 5
	if mean.AsFloat() != want {
		t.Errorf("M mean = %v, want %v", mean, want)
	}
}

func TestGroupByNullHandling(t *testing.T) {
	ds := figure1(t)
	if err := ds.SetCell(0, 4, dataset.Null); err != nil {
		t.Fatal(err)
	}
	got, err := GroupBy(ds, []string{"SEX"}, []Agg{
		{Func: AggMean, Attr: "AVE_SALARY"},
		{Func: AggCount},
	})
	if err != nil {
		t.Fatal(err)
	}
	// M mean now over 4 values; count still 5 (count counts rows).
	mean, _ := got.CellByName(1, "mean_AVE_SALARY")
	want := (25883.0 + 42919 + 15110 + 29402) / 4
	if mean.AsFloat() != want {
		t.Errorf("mean = %v, want %v", mean, want)
	}
	cnt, _ := got.CellByName(1, "count")
	if cnt != dataset.Int(5) {
		t.Errorf("count = %v", cnt)
	}
}

func TestGroupByErrors(t *testing.T) {
	ds := figure1(t)
	if _, err := GroupBy(ds, []string{"NOPE"}, nil); err == nil {
		t.Error("missing key accepted")
	}
	if _, err := GroupBy(ds, []string{"SEX"}, []Agg{{Func: AggSum, Attr: "NOPE"}}); err == nil {
		t.Error("missing aggregate attribute accepted")
	}
	if _, err := GroupBy(ds, []string{"SEX"}, []Agg{{Func: AggSum, Attr: "RACE"}}); err == nil {
		t.Error("sum over string accepted")
	}
	if _, err := GroupBy(ds, []string{"SEX"}, []Agg{{Func: AggWMean, Attr: "AVE_SALARY"}}); err == nil {
		t.Error("wmean without weight accepted")
	}
}

func TestSort(t *testing.T) {
	ds := figure1(t)
	got, err := Sort(ds, SortKey{Attr: "AVE_SALARY"})
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	for i := 0; i < got.Rows(); i++ {
		v, _ := got.CellByName(i, "AVE_SALARY")
		if v.AsInt() < prev {
			t.Fatalf("row %d out of order", i)
		}
		prev = v.AsInt()
	}
	got, err = Sort(ds, SortKey{Attr: "SEX"}, SortKey{Attr: "AVE_SALARY", Desc: true})
	if err != nil {
		t.Fatal(err)
	}
	// First row: F with highest salary among F = 31762.
	v, _ := got.CellByName(0, "AVE_SALARY")
	if v != dataset.Int(31762) {
		t.Errorf("first = %v", v)
	}
	if _, err := Sort(ds, SortKey{Attr: "NOPE"}); err == nil {
		t.Error("missing sort key accepted")
	}
}

func TestExtend(t *testing.T) {
	ds := figure1(t)
	si := ds.Schema().Index("AVE_SALARY")
	got, err := Extend(ds, dataset.Attribute{Name: "SALARY_K", Kind: dataset.KindFloat, Derived: "AVE_SALARY/1000"},
		func(row dataset.Row) dataset.Value {
			if row[si].IsNull() {
				return dataset.Null
			}
			return dataset.Float(row[si].AsFloat() / 1000)
		})
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema().Len() != 6 {
		t.Fatalf("schema len = %d", got.Schema().Len())
	}
	v, _ := got.CellByName(0, "SALARY_K")
	if v.AsFloat() != 33.122 {
		t.Errorf("SALARY_K = %v", v)
	}
	if ds.Schema().Len() != 5 {
		t.Error("Extend mutated source")
	}
}

func TestRename(t *testing.T) {
	ds := figure1(t)
	got, err := Rename(ds, "AVE_SALARY", "SALARY")
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema().Index("SALARY") < 0 || got.Schema().Index("AVE_SALARY") >= 0 {
		t.Errorf("schema = %s", got.Schema())
	}
	v, _ := got.CellByName(0, "SALARY")
	if v != dataset.Int(33122) {
		t.Errorf("renamed column data = %v", v)
	}
	if _, err := Rename(ds, "NOPE", "X"); err == nil {
		t.Error("rename of missing attribute accepted")
	}
	if _, err := Rename(ds, "SEX", "RACE"); err == nil {
		t.Error("rename collision accepted")
	}
}

func TestPredicateStrings(t *testing.T) {
	p := And{
		Cmp{Attr: "X", Op: Ge, Val: dataset.Int(3)},
		Or{Not{IsNull{Attr: "Y"}}, NotNull{Attr: "Z"}},
		All{},
	}
	s := p.String()
	if s == "" {
		t.Fatal("empty predicate string")
	}
	for _, want := range []string{"X >= 3", "is null", "is not null", "true"} {
		if !contains(s, want) {
			t.Errorf("%q missing from %q", want, s)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// No statement joins, renames, extends or groups a data set — a code
// table is decoded with Decode and a derived attribute is added by the
// view — so those operators live here, beside the tests that exercise
// them.

// figure2 materializes a code table as the two-column data set
// (CATEGORY, VALUE) of the paper's Figure 2, ordered by code.
func figure2(ct *dataset.CodeTable) *dataset.Dataset {
	ds := dataset.New(dataset.MustSchema(
		dataset.Attribute{Name: "CATEGORY", Kind: dataset.KindInt, Category: true},
		dataset.Attribute{Name: "VALUE", Kind: dataset.KindString},
	))
	for _, c := range ct.Codes() {
		label, _ := ct.Decode(c)
		if err := ds.Append(dataset.Row{dataset.Int(c), dataset.String(label)}); err != nil {
			panic(err)
		}
	}
	return ds
}

// Join computes the inner equi-join of left and right on
// left.leftAttr = right.rightAttr using a hash join (build on right).
// The result carries all left attributes followed by all right attributes
// except the join attribute; name collisions on non-join attributes get a
// "right_" prefix.
func Join(left, right *dataset.Dataset, leftAttr, rightAttr string) (*dataset.Dataset, error) {
	li := left.Schema().Index(leftAttr)
	if li < 0 {
		return nil, fmt.Errorf("relalg: join: left has no attribute %q", leftAttr)
	}
	ri := right.Schema().Index(rightAttr)
	if ri < 0 {
		return nil, fmt.Errorf("relalg: join: right has no attribute %q", rightAttr)
	}

	// Result schema.
	var attrs []dataset.Attribute
	for i := 0; i < left.Schema().Len(); i++ {
		attrs = append(attrs, left.Schema().At(i))
	}
	for i := 0; i < right.Schema().Len(); i++ {
		if i == ri {
			continue
		}
		a := right.Schema().At(i)
		if left.Schema().Index(a.Name) >= 0 {
			a.Name = "right_" + a.Name
		}
		a.Category = false // join output keys are not declared
		attrs = append(attrs, a)
	}
	sch, err := dataset.NewSchema(attrs...)
	if err != nil {
		return nil, fmt.Errorf("relalg: join: %w", err)
	}

	// Build side: hash right rows by join key rendering. Values compare
	// by Kind+payload; String() is injective per kind and the schema
	// fixes the kind, so the rendered string is a sound hash key.
	build := make(map[string][]int)
	for r := 0; r < right.Rows(); r++ {
		k := right.Cell(r, ri)
		if k.IsNull() {
			continue // nulls never join
		}
		build[k.String()] = append(build[k.String()], r)
	}

	out := dataset.New(sch)
	for l := 0; l < left.Rows(); l++ {
		k := left.Cell(l, li)
		if k.IsNull() {
			continue
		}
		for _, r := range build[k.String()] {
			if left.Cell(l, li) != right.Cell(r, ri) {
				continue // hash collision across numeric kinds
			}
			row := make(dataset.Row, 0, sch.Len())
			row = append(row, left.RowAt(l)...)
			for c := 0; c < right.Schema().Len(); c++ {
				if c == ri {
					continue
				}
				row = append(row, right.Cell(r, c))
			}
			if err := out.Append(row); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Rename returns ds with attribute old renamed to new; data is shared
// structure-wise via a clone (schemas are immutable once built).
func Rename(ds *dataset.Dataset, old, new string) (*dataset.Dataset, error) {
	i := ds.Schema().Index(old)
	if i < 0 {
		return nil, fmt.Errorf("relalg: rename: no attribute %q", old)
	}
	attrs := make([]dataset.Attribute, ds.Schema().Len())
	for c := range attrs {
		attrs[c] = ds.Schema().At(c)
	}
	attrs[i].Name = new
	sch, err := dataset.NewSchema(attrs...)
	if err != nil {
		return nil, fmt.Errorf("relalg: rename: %w", err)
	}
	out := dataset.New(sch)
	for r := 0; r < ds.Rows(); r++ {
		if err := out.Append(ds.RowAt(r)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Extend appends a computed attribute to ds, with fn deriving each new
// cell from its row. The derivation string is recorded in the schema so
// the Management Database can reason about it (Section 3.2).
func Extend(ds *dataset.Dataset, attr dataset.Attribute, fn func(row dataset.Row) dataset.Value) (*dataset.Dataset, error) {
	out := dataset.New(ds.Schema())
	for i := 0; i < ds.Rows(); i++ {
		if err := out.Append(ds.RowAt(i)); err != nil {
			return nil, err
		}
	}
	vals := make([]dataset.Value, ds.Rows())
	for i := 0; i < ds.Rows(); i++ {
		vals[i] = fn(ds.RowAt(i))
	}
	if err := out.AddColumn(attr, vals); err != nil {
		return nil, err
	}
	return out, nil
}

// AggFunc names a group-by aggregate.
type AggFunc string

const (
	AggCount AggFunc = "count"
	AggSum   AggFunc = "sum"
	AggMean  AggFunc = "mean"
	AggMin   AggFunc = "min"
	AggMax   AggFunc = "max"
	// AggWMean is the mean of Attr weighted by Weight — the operation the
	// paper's M/F-collapse example needs for AVE_SALARY (Section 2.2).
	AggWMean AggFunc = "wmean"
)

// Agg is one aggregate in a GroupBy.
type Agg struct {
	Func   AggFunc
	Attr   string // source attribute; ignored for AggCount
	Weight string // weight attribute for AggWMean
	As     string // result attribute name; defaults to func_attr
}

func (a Agg) outName() string {
	if a.As != "" {
		return a.As
	}
	if a.Func == AggCount {
		return "count"
	}
	return string(a.Func) + "_" + a.Attr
}

type aggState struct {
	n          int64
	sum        float64
	wsum, wtot float64
	min, max   dataset.Value
}

// aggCol is one aggregate column resolved against the input schema.
type aggCol struct {
	agg       Agg
	attrIdx   int
	weightIdx int
	kind      dataset.Kind
}

// groupPlan validates keys and aggregates against ds and returns the
// resolved key indices, aggregate columns, and output schema.
func groupPlan(ds *dataset.Dataset, keys []string, aggs []Agg) ([]int, []aggCol, *dataset.Schema, error) {
	keyIdx := make([]int, len(keys))
	for i, k := range keys {
		keyIdx[i] = ds.Schema().Index(k)
		if keyIdx[i] < 0 {
			return nil, nil, nil, fmt.Errorf("relalg: group by: no attribute %q", k)
		}
	}
	cols := make([]aggCol, len(aggs))
	for i, a := range aggs {
		c := aggCol{agg: a, attrIdx: -1, weightIdx: -1}
		if a.Func != AggCount {
			c.attrIdx = ds.Schema().Index(a.Attr)
			if c.attrIdx < 0 {
				return nil, nil, nil, fmt.Errorf("relalg: group by: aggregate over missing attribute %q", a.Attr)
			}
			c.kind = ds.Schema().At(c.attrIdx).Kind
			if c.kind == dataset.KindString && a.Func != AggMin && a.Func != AggMax {
				return nil, nil, nil, fmt.Errorf("relalg: group by: %s over string attribute %q", a.Func, a.Attr)
			}
		}
		if a.Func == AggWMean {
			if a.Weight == "" {
				return nil, nil, nil, fmt.Errorf("relalg: group by: wmean of %q needs a weight attribute", a.Attr)
			}
			c.weightIdx = ds.Schema().Index(a.Weight)
			if c.weightIdx < 0 {
				return nil, nil, nil, fmt.Errorf("relalg: group by: no weight attribute %q", a.Weight)
			}
		}
		cols[i] = c
	}

	// Output schema: keys (retaining category/code metadata) then one
	// column per aggregate.
	var attrs []dataset.Attribute
	for _, i := range keyIdx {
		attrs = append(attrs, ds.Schema().At(i))
	}
	for _, c := range cols {
		kind := dataset.KindFloat
		switch c.agg.Func {
		case AggCount:
			kind = dataset.KindInt
		case AggMin, AggMax:
			kind = c.kind
		}
		attrs = append(attrs, dataset.Attribute{
			Name: c.agg.outName(), Kind: kind, Summarizable: true,
			Derived: fmt.Sprintf("%s(%s)", c.agg.Func, c.agg.Attr),
		})
	}
	sch, err := dataset.NewSchema(attrs...)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("relalg: group by: %w", err)
	}
	return keyIdx, cols, sch, nil
}

// groupPartition is the state of a grouped aggregation: one aggState per
// aggregate per group, plus the key row of each group.
type groupPartition struct {
	groups    map[string][]aggState
	groupKeys map[string]dataset.Row
}

// updateAggStates folds row r of ds into states, one entry per aggregate
// column.
func updateAggStates(ds *dataset.Dataset, r int, cols []aggCol, states []aggState) {
	for i, c := range cols {
		st := &states[i]
		if c.agg.Func == AggCount {
			st.n++
			continue
		}
		v := ds.Cell(r, c.attrIdx)
		if v.IsNull() {
			continue
		}
		st.n++
		switch c.agg.Func {
		case AggSum, AggMean:
			st.sum += v.AsFloat()
		case AggWMean:
			w := ds.Cell(r, c.weightIdx)
			if w.IsNull() {
				st.n--
				continue
			}
			st.wsum += v.AsFloat() * w.AsFloat()
			st.wtot += w.AsFloat()
		case AggMin:
			if st.min.IsNull() || compareValues(v, st.min) < 0 {
				st.min = v
			}
		case AggMax:
			if st.max.IsNull() || compareValues(v, st.max) > 0 {
				st.max = v
			}
		}
	}
}

// foldGroups aggregates the rows of ds into a fresh partition.
func foldGroups(ds *dataset.Dataset, keyIdx []int, cols []aggCol) groupPartition {
	part := groupPartition{
		groups:    make(map[string][]aggState),
		groupKeys: make(map[string]dataset.Row),
	}
	for r := 0; r < ds.Rows(); r++ {
		var kb strings.Builder
		keyVals := make(dataset.Row, len(keyIdx))
		for i, ki := range keyIdx {
			v := ds.Cell(r, ki)
			keyVals[i] = v
			kb.WriteString(v.String())
			kb.WriteByte(0)
		}
		gk := kb.String()
		states, ok := part.groups[gk]
		if !ok {
			states = make([]aggState, len(cols))
			part.groups[gk] = states
			part.groupKeys[gk] = keyVals
		}
		updateAggStates(ds, r, cols, states)
	}
	return part
}

// emitGroups renders a partition as the ordered output data set.
func emitGroups(sch *dataset.Schema, cols []aggCol, part groupPartition) (*dataset.Dataset, error) {
	ordered := make([]string, 0, len(part.groups))
	for gk := range part.groups {
		ordered = append(ordered, gk)
	}
	sort.Strings(ordered)

	out := dataset.New(sch)
	for _, gk := range ordered {
		row := make(dataset.Row, 0, sch.Len())
		row = append(row, part.groupKeys[gk]...)
		for i, c := range cols {
			st := part.groups[gk][i]
			switch c.agg.Func {
			case AggCount:
				row = append(row, dataset.Int(st.n))
			case AggSum:
				row = append(row, dataset.Float(st.sum))
			case AggMean:
				if st.n == 0 {
					row = append(row, dataset.Null)
				} else {
					row = append(row, dataset.Float(st.sum/float64(st.n)))
				}
			case AggWMean:
				if st.wtot == 0 {
					row = append(row, dataset.Null)
				} else {
					row = append(row, dataset.Float(st.wsum/st.wtot))
				}
			case AggMin:
				row = append(row, st.min)
			case AggMax:
				row = append(row, st.max)
			}
		}
		if err := out.Append(row); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// GroupBy partitions ds on the key attributes and computes the aggregates
// for each partition. Rows with null key values form their own groups;
// null aggregate inputs are skipped (missing-value semantics). Output is
// ordered by key.
func GroupBy(ds *dataset.Dataset, keys []string, aggs []Agg) (*dataset.Dataset, error) {
	keyIdx, cols, sch, err := groupPlan(ds, keys, aggs)
	if err != nil {
		return nil, err
	}
	return emitGroups(sch, cols, foldGroups(ds, keyIdx, cols))
}
