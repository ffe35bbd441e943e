package relalg

import (
	"cmp"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"statdb/internal/dataset"
)

// compareValues is the boxed three-way order of two cells: -1, 0 or +1.
// Nulls sort before everything and equal each other; ints and floats
// compare numerically (an int against a float widens), so a NaN equals
// everything; strings compare natively. Comparing a string with a number
// panics. Sort's typed comparator must answer exactly this.
func compareValues(v, o dataset.Value) int {
	switch {
	case v.IsNull() || o.IsNull():
		return nonNull(v) - nonNull(o)
	case v.Kind() == dataset.KindString || o.Kind() == dataset.KindString:
		return threeWay(v.AsString(), o.AsString())
	case v.Kind() == dataset.KindInt && o.Kind() == dataset.KindInt:
		return threeWay(v.AsInt(), o.AsInt())
	}
	return threeWay(v.AsFloat(), o.AsFloat())
}

func nonNull(v dataset.Value) int {
	if v.IsNull() {
		return 0
	}
	return 1
}

func threeWay[T cmp.Ordered](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func TestValueCompare(t *testing.T) {
	nan := dataset.Float(math.NaN())
	cases := []struct {
		a, b dataset.Value
		want int
	}{
		{dataset.Int(1), dataset.Int(2), -1},
		{dataset.Int(2), dataset.Int(2), 0},
		{dataset.Int(3), dataset.Int(2), 1},
		{dataset.Float(1.5), dataset.Float(2.5), -1},
		{dataset.Float(math.Copysign(0, -1)), dataset.Float(0), 0},
		{nan, dataset.Float(1), 0},
		{dataset.Float(1), nan, 0},
		{nan, dataset.Null, 1},
		{dataset.String("a"), dataset.String("b"), -1},
		{dataset.Null, dataset.Int(1), -1},
		{dataset.Int(1), dataset.Null, 1},
		{dataset.Null, dataset.Null, 0},
		{dataset.Int(1), dataset.Float(1.5), -1}, // cross-kind numeric
		{dataset.Float(2.5), dataset.Int(2), 1},
	}
	for _, c := range cases {
		if got := compareValues(c.a, c.b); got != c.want {
			t.Errorf("compareValues(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("comparing a string with an int did not panic")
		}
	}()
	compareValues(dataset.String("x"), dataset.Int(1))
}

// Property: the order is antisymmetric over int values.
func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		return compareValues(dataset.Int(a), dataset.Int(b)) == -compareValues(dataset.Int(b), dataset.Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The row-at-a-time operators the typed ones replaced — RowAt and Append
// over every cell, Sort through compareValues — kept as the reference
// every typed operator must equal cell for cell and bit for bit.

func refSelect(ds *dataset.Dataset, p Predicate) (*dataset.Dataset, error) {
	keep, err := rowEval(p, ds.Schema())
	if err != nil {
		return nil, err
	}
	out := dataset.New(ds.Schema())
	for i := 0; i < ds.Rows(); i++ {
		if keep(ds.RowAt(i)) {
			if err := out.Append(ds.RowAt(i)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func refProject(ds *dataset.Dataset, names ...string) (*dataset.Dataset, error) {
	sch, err := ds.Schema().Project(names...)
	if err != nil {
		return nil, err
	}
	out := dataset.New(sch)
	for r := 0; r < ds.Rows(); r++ {
		row := make(dataset.Row, len(names))
		for i, n := range names {
			row[i] = ds.Cell(r, ds.Schema().Index(n))
		}
		if err := out.Append(row); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func refDecode(ds *dataset.Dataset, attr string) (*dataset.Dataset, error) {
	i := ds.Schema().Index(attr)
	a := ds.Schema().At(i)
	attrs := make([]dataset.Attribute, ds.Schema().Len())
	for c := range attrs {
		attrs[c] = ds.Schema().At(c)
	}
	attrs[i].Kind, attrs[i].Code = dataset.KindString, nil
	out := dataset.New(dataset.MustSchema(attrs...))
	for r := 0; r < ds.Rows(); r++ {
		row := ds.RowAt(r)
		if !row[i].IsNull() {
			label, ok := a.Code.Decode(row[i].AsInt())
			if !ok {
				return nil, fmt.Errorf("code %d not in table", row[i].AsInt())
			}
			row[i] = dataset.String(label)
		}
		if err := out.Append(row); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func refSort(ds *dataset.Dataset, keys ...SortKey) (*dataset.Dataset, error) {
	order := make([]int, ds.Rows())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		for _, k := range keys {
			c := ds.Schema().Index(k.Attr)
			cmp := compareValues(ds.Cell(order[a], c), ds.Cell(order[b], c))
			if cmp == 0 {
				continue
			}
			if k.Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	out := dataset.New(ds.Schema())
	for _, r := range order {
		if err := out.Append(ds.RowAt(r)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// opsFixture extends predicateFixture's I, F and S columns with few
// distinct values (so sort keys repeat), ±0 in F, an empty string in S,
// a coded column G and a unique ID; some cells are nulled after they
// were written, so a stale payload sits under the null.
func opsFixture(t *testing.T, g *testLCG, n int) *dataset.Dataset {
	t.Helper()
	code := dataset.NewCodeTable("G").MustDefine(1, "one").MustDefine(2, "two").MustDefine(3, "three")
	ds := dataset.New(dataset.MustSchema(
		dataset.Attribute{Name: "I", Kind: dataset.KindInt},
		dataset.Attribute{Name: "F", Kind: dataset.KindFloat},
		dataset.Attribute{Name: "S", Kind: dataset.KindString},
		dataset.Attribute{Name: "G", Kind: dataset.KindInt, Code: code},
		dataset.Attribute{Name: "ID", Kind: dataset.KindInt},
	))
	floats := []float64{math.NaN(), 0, math.Copysign(0, -1), -1.5, 2, math.Inf(1)}
	labels := []string{"a", "b", "", "é"}
	for i := 0; i < n; i++ {
		row := dataset.Row{
			dataset.Int(int64(g.intn(5)) - 2),
			dataset.Float(floats[g.intn(len(floats))]),
			dataset.String(labels[g.intn(len(labels))]),
			dataset.Int(int64(1 + g.intn(3))),
			dataset.Int(int64(i)),
		}
		for c := 0; c < 4; c++ {
			if g.intn(10) == 0 {
				row[c] = dataset.Null
			}
		}
		if err := ds.Append(row); err != nil {
			t.Fatal(err)
		}
		if g.intn(20) == 0 {
			if err := ds.SetCell(i, g.intn(4), dataset.Null); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ds
}

// identical fails unless got and want have the same schema and, column by
// column, the same validity and the same payload bits, zero under nulls
// included.
func identical(t *testing.T, label string, got, want *dataset.Dataset) {
	t.Helper()
	if !got.Schema().Equal(want.Schema()) || got.Rows() != want.Rows() {
		t.Fatalf("%s: %d rows of [%s], want %d of [%s]", label, got.Rows(), got.Schema(), want.Rows(), want.Schema())
	}
	for c := 0; c < want.Schema().Len(); c++ {
		same := slices.Equal(got.Valid(c), want.Valid(c))
		switch want.Schema().At(c).Kind {
		case dataset.KindInt:
			g, _ := got.Ints(c)
			w, _ := want.Ints(c)
			same = same && slices.Equal(g, w)
		case dataset.KindFloat:
			g, _ := got.Floats(c)
			w, _ := want.Floats(c)
			same = same && slices.EqualFunc(g, w, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
		case dataset.KindString:
			g, _ := got.Strings(c)
			w, _ := want.Strings(c)
			same = same && slices.Equal(g, w)
		}
		if !same {
			t.Fatalf("%s: column %s differs from the row-at-a-time reference", label, want.Schema().At(c).Name)
		}
	}
}

// Every typed operator equals its row-at-a-time reference, bit for bit,
// on data sets with NaN, ±0, nulls, repeated keys and empty results.
func TestOperatorsMatchRowReference(t *testing.T) {
	g := testLCG(47)
	names := []string{"I", "F", "S", "G", "ID"}
	for trial := 0; trial < 120; trial++ {
		ds := opsFixture(t, &g, g.intn(300))
		pred := randomPredicate(&g, g.intn(3))
		if trial%10 == 0 {
			pred = Cmp{Attr: "I", Op: Gt, Val: dataset.Int(100)} // selects nothing
		}
		got, err := Select(ds, pred)
		want, rerr := refSelect(ds, pred)
		if err != nil || rerr != nil {
			t.Fatalf("select %s: %v / %v", pred, err, rerr)
		}
		identical(t, fmt.Sprintf("trial %d select %s", trial, pred), got, want)

		proj := slices.Clone(names)
		for i := range proj {
			j := i + g.intn(len(proj)-i)
			proj[i], proj[j] = proj[j], proj[i]
		}
		proj = proj[:1+g.intn(len(proj))]
		got, err = Project(ds, proj...)
		want, rerr = refProject(ds, proj...)
		if err != nil || rerr != nil {
			t.Fatalf("project %v: %v / %v", proj, err, rerr)
		}
		identical(t, fmt.Sprintf("trial %d project %v", trial, proj), got, want)

		got, err = Decode(ds, "G")
		want, rerr = refDecode(ds, "G")
		if err != nil || rerr != nil {
			t.Fatalf("decode: %v / %v", err, rerr)
		}
		identical(t, fmt.Sprintf("trial %d decode", trial), got, want)

		keys := make([]SortKey, 1+g.intn(3))
		for i := range keys {
			keys[i] = SortKey{Attr: names[g.intn(4)], Desc: g.intn(2) == 0}
		}
		if trial%3 == 0 {
			keys[0].Attr = "F" // a NaN key
		}
		got, err = Sort(ds, keys...)
		want, rerr = refSort(ds, keys...)
		if err != nil || rerr != nil {
			t.Fatalf("sort %v: %v / %v", keys, err, rerr)
		}
		identical(t, fmt.Sprintf("trial %d sort %v", trial, keys), got, want)
	}
}

// keyOrder answers compareValues for every pair of cells of every kind.
func TestKeyOrderIsCompare(t *testing.T) {
	g := testLCG(3)
	ds := opsFixture(t, &g, 60)
	for c := 0; c < ds.Schema().Len(); c++ {
		order := keyOrder(ds, c)
		for a := 0; a < ds.Rows(); a++ {
			for b := 0; b < ds.Rows(); b++ {
				if got, want := order(a, b), compareValues(ds.Cell(a, c), ds.Cell(b, c)); got != want {
					t.Fatalf("column %s rows %d, %d (%v, %v): %d, want %d",
						ds.Schema().At(c).Name, a, b, ds.Cell(a, c), ds.Cell(b, c), got, want)
				}
			}
		}
	}
}

// Sort is stable: rows with equal keys keep their input order, which the
// fixture's ID column records.
func TestSortStableOnRepeatedKeys(t *testing.T) {
	g := testLCG(11)
	ds := opsFixture(t, &g, 500)
	for _, keys := range [][]SortKey{{{Attr: "I"}}, {{Attr: "S", Desc: true}}, {{Attr: "G"}, {Attr: "I", Desc: true}}} {
		got, err := Sort(ds, keys...)
		if err != nil {
			t.Fatal(err)
		}
		id := got.Schema().Index("ID")
		for r := 1; r < got.Rows(); r++ {
			c := 0
			for _, k := range keys {
				ki := got.Schema().Index(k.Attr)
				if c = compareValues(got.Cell(r-1, ki), got.Cell(r, ki)); k.Desc {
					c = -c
				}
				if c != 0 {
					break
				}
			}
			if c > 0 || c == 0 && got.Cell(r-1, id).AsInt() > got.Cell(r, id).AsInt() {
				t.Fatalf("sort %v: rows %d and %d out of order", keys, r-1, r)
			}
		}
	}
}

// numericFixture is a numeric five-column data set of n rows.
func numericFixture(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	ds := dataset.New(dataset.MustSchema(
		dataset.Attribute{Name: "ID", Kind: dataset.KindInt},
		dataset.Attribute{Name: "A", Kind: dataset.KindInt},
		dataset.Attribute{Name: "B", Kind: dataset.KindFloat},
		dataset.Attribute{Name: "C", Kind: dataset.KindFloat},
		dataset.Attribute{Name: "D", Kind: dataset.KindInt},
	))
	g := testLCG(5)
	for i := 0; i < n; i++ {
		row := dataset.Row{
			dataset.Int(int64(n - i)), dataset.Int(int64(g.intn(100))),
			dataset.Float(float64(g.intn(1000)) / 8), dataset.Float(float64(i) / 3), dataset.Int(int64(i % 7)),
		}
		if i%50 == 0 {
			row[2] = dataset.Null
		}
		if err := ds.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

// Select, Project and Sort allocate per column, not per row: the same
// exact count at 2 000 and at 20 000 rows. Collection is off while
// counting, because a GC cycle that the column allocations start adds a
// runtime allocation of its own.
func TestOperatorAllocations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cases := []struct {
		name string
		want float64
		run  func(ds *dataset.Dataset) (*dataset.Dataset, error)
	}{
		{"select", 22, func(ds *dataset.Dataset) (*dataset.Dataset, error) {
			return Select(ds, Cmp{Attr: "A", Op: Lt, Val: dataset.Int(50)})
		}},
		{"project", 17, func(ds *dataset.Dataset) (*dataset.Dataset, error) {
			return Project(ds, "D", "B", "ID")
		}},
		{"sort", 24, func(ds *dataset.Dataset) (*dataset.Dataset, error) {
			return Sort(ds, SortKey{Attr: "D"}, SortKey{Attr: "B", Desc: true})
		}},
	}
	for _, n := range []int{2000, 20000} {
		ds := numericFixture(t, n)
		for _, c := range cases {
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := c.run(ds); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s at %d rows: %v allocations", c.name, n, allocs)
			if allocs != c.want {
				t.Errorf("%s at %d rows: %v allocations, want %v", c.name, n, allocs, c.want)
			}
		}
	}
}
