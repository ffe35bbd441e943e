package relalg

import (
	"fmt"
	"math"
	"testing"

	"statdb/internal/dataset"
)

// predicateFixture has an int, a float (with a NaN) and a string column,
// each about one cell in eight missing.
func predicateFixture(t *testing.T, g *testLCG, n int) *dataset.Dataset {
	t.Helper()
	ds := dataset.New(dataset.MustSchema(
		dataset.Attribute{Name: "I", Kind: dataset.KindInt},
		dataset.Attribute{Name: "F", Kind: dataset.KindFloat},
		dataset.Attribute{Name: "S", Kind: dataset.KindString},
	))
	labels := []string{"a", "b", "c", "d"}
	for i := 0; i < n; i++ {
		row := dataset.Row{
			dataset.Int(int64(g.intn(9)) - 4),
			dataset.Float(float64(g.intn(17))/2 - 4),
			dataset.String(labels[g.intn(len(labels))]),
		}
		if i == n/2 {
			row[1] = dataset.Float(math.NaN())
		}
		for c := range row {
			if g.intn(8) == 0 {
				row[c] = dataset.Null
			}
		}
		if err := ds.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

// randomPredicate draws a tree of the given depth over the fixture's
// columns; numeric leaves compare against int and float constants alike.
func randomPredicate(g *testLCG, depth int) Predicate {
	if depth > 0 {
		switch g.intn(4) {
		case 0:
			return Not{P: randomPredicate(g, depth-1)}
		case 1, 2:
			parts := make([]Predicate, g.intn(4)) // zero parts included
			for i := range parts {
				parts[i] = randomPredicate(g, depth-1)
			}
			if g.intn(2) == 0 {
				return And(parts)
			}
			return Or(parts)
		}
	}
	attr := []string{"I", "F", "S"}[g.intn(3)]
	switch g.intn(8) {
	case 0:
		return IsNull{Attr: attr}
	case 1:
		return NotNull{Attr: attr}
	case 2:
		return All{}
	}
	var val dataset.Value
	switch {
	case attr == "S":
		val = dataset.String([]string{"a", "b", "bb", "d"}[g.intn(4)])
	case g.intn(2) == 0:
		val = dataset.Int(int64(g.intn(9)) - 4)
	default:
		val = dataset.Float(float64(g.intn(17))/2 - 4)
	}
	return Cmp{Attr: attr, Op: Op(g.intn(6)), Val: val}
}

// rowEval is the row-at-a-time reference evaluator the column-wise Bind
// is checked against: it resolves attributes against sch and tests one
// row at a time through Value.IsNull and compareValues.
func rowEval(p Predicate, sch *dataset.Schema) (func(dataset.Row) bool, error) {
	switch p := p.(type) {
	case Cmp:
		i, _, err := p.column(sch)
		if err != nil {
			return nil, err
		}
		return func(row dataset.Row) bool {
			if row[i].IsNull() {
				return false
			}
			cmp := compareValues(row[i], p.Val)
			switch p.Op {
			case Eq:
				return cmp == 0
			case Ne:
				return cmp != 0
			case Lt:
				return cmp < 0
			case Le:
				return cmp <= 0
			case Gt:
				return cmp > 0
			case Ge:
				return cmp >= 0
			}
			return false
		}, nil
	case IsNull:
		i, err := attrIndex(sch, p.Attr)
		if err != nil {
			return nil, err
		}
		return func(row dataset.Row) bool { return row[i].IsNull() }, nil
	case NotNull:
		i, err := attrIndex(sch, p.Attr)
		if err != nil {
			return nil, err
		}
		return func(row dataset.Row) bool { return !row[i].IsNull() }, nil
	case And:
		fns, err := rowEvals(p, sch)
		if err != nil {
			return nil, err
		}
		return func(row dataset.Row) bool {
			for _, f := range fns {
				if !f(row) {
					return false
				}
			}
			return true
		}, nil
	case Or:
		fns, err := rowEvals(p, sch)
		if err != nil {
			return nil, err
		}
		return func(row dataset.Row) bool {
			for _, f := range fns {
				if f(row) {
					return true
				}
			}
			return false
		}, nil
	case Not:
		f, err := rowEval(p.P, sch)
		if err != nil {
			return nil, err
		}
		return func(row dataset.Row) bool { return !f(row) }, nil
	case All:
		return func(dataset.Row) bool { return true }, nil
	}
	return nil, fmt.Errorf("relalg: no reference evaluator for %T", p)
}

func rowEvals(parts []Predicate, sch *dataset.Schema) ([]func(dataset.Row) bool, error) {
	fns := make([]func(dataset.Row) bool, len(parts))
	for i, q := range parts {
		f, err := rowEval(q, sch)
		if err != nil {
			return nil, err
		}
		fns[i] = f
	}
	return fns, nil
}

// The column-wise evaluator and the row evaluator are two readings of
// one predicate: same mask, row for row, whatever range it is asked in.
func TestBindMatchesCompile(t *testing.T) {
	g := testLCG(20240915)
	for trial := 0; trial < 300; trial++ {
		ds := predicateFixture(t, &g, 1+g.intn(200))
		pred := randomPredicate(&g, g.intn(4))
		eval, err := rowEval(pred, ds.Schema())
		if err != nil {
			t.Fatalf("%s: row evaluator: %v", pred, err)
		}
		bound, err := pred.Bind(ds)
		if err != nil {
			t.Fatalf("%s: Bind: %v", pred, err)
		}
		n := ds.Rows()
		lo := g.intn(n)
		hi := lo + g.intn(n-lo+1)
		mask := make([]bool, hi-lo)
		bound(lo, hi, mask)
		for r := lo; r < hi; r++ {
			if want := eval(ds.RowAt(r)); mask[r-lo] != want {
				t.Fatalf("trial %d: %s on row %d %v: column-wise %v, row-wise %v",
					trial, pred, r, ds.RowAt(r), mask[r-lo], want)
			}
		}
	}
}

func TestBindFailsLikeCompile(t *testing.T) {
	g := testLCG(7)
	ds := predicateFixture(t, &g, 10)
	bad := []Predicate{
		Cmp{Attr: "NOPE", Op: Eq, Val: dataset.Int(1)},
		IsNull{Attr: "NOPE"},
		NotNull{Attr: "NOPE"},
		Cmp{Attr: "S", Op: Eq, Val: dataset.Int(1)},
		Cmp{Attr: "I", Op: Lt, Val: dataset.String("a")},
		Cmp{Attr: "F", Op: Gt, Val: dataset.Null},
		And{All{}, Cmp{Attr: "S", Op: Ne, Val: dataset.Float(1)}},
		Or{Cmp{Attr: "NOPE", Op: Eq, Val: dataset.Int(1)}, Cmp{Attr: "S", Op: Eq, Val: dataset.Int(1)}},
		Not{P: IsNull{Attr: "NOPE"}},
	}
	for _, pred := range bad {
		_, cerr := rowEval(pred, ds.Schema())
		_, berr := pred.Bind(ds)
		if cerr == nil || berr == nil || cerr.Error() != berr.Error() {
			t.Errorf("%s: row evaluator error %v, Bind error %v", pred, cerr, berr)
		}
	}
}
