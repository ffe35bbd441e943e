// Package relalg implements the relational operations Section 2.3 of the
// paper requires for materializing views — "the traditional relational
// operations which create and transform tables" plus aggregate functions
// — over in-memory data sets.
package relalg

import (
	"fmt"

	"statdb/internal/dataset"
)

// Op is a comparison operator in a predicate.
type Op uint8

const (
	Eq Op = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

func (o Op) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	}
	return "?"
}

// Predicate selects rows. Its one evaluator is column-wise over an
// in-memory data set's typed vectors: Select, a view's `materialize …
// where` and its `update … where` bind it to the whole data set, and
// dbmachine.FilterScan binds it to each tape block as it streams past.
type Predicate interface {
	// Bind resolves attribute references against ds's schema and returns
	// the range evaluator over ds's column vectors.
	Bind(ds *dataset.Dataset) (RangeEval, error)
	// String renders the predicate for logging and update histories.
	String() string
}

// RangeEval is a predicate bound to one data set: it sets mask[i-lo] to
// whether row i satisfies the predicate, for every i in [lo, hi). Calls
// over disjoint masks may run concurrently.
type RangeEval func(lo, hi int, mask []bool)

// attrIndex resolves attr against sch.
func attrIndex(sch *dataset.Schema, attr string) (int, error) {
	i := sch.Index(attr)
	if i < 0 {
		return 0, fmt.Errorf("relalg: no attribute %q", attr)
	}
	return i, nil
}

// Cmp compares one attribute against a constant. Null cells never
// satisfy a comparison (including Ne), matching SQL-style missing-value
// semantics; IsNull / NotNull test nullness explicitly.
type Cmp struct {
	Attr string
	Op   Op
	Val  dataset.Value
}

// column resolves the compared attribute and checks its kind against
// the constant's: equal, or both numeric.
func (c Cmp) column(sch *dataset.Schema) (int, dataset.Kind, error) {
	i, err := attrIndex(sch, c.Attr)
	if err != nil {
		return 0, 0, err
	}
	kind := sch.At(i).Kind
	vk := c.Val.Kind()
	numeric := func(k dataset.Kind) bool { return k == dataset.KindInt || k == dataset.KindFloat }
	if vk != kind && !(numeric(vk) && numeric(kind)) {
		return 0, 0, fmt.Errorf("relalg: comparing %s attribute %q with %s constant", kind, c.Attr, vk)
	}
	return i, kind, nil
}

// Bind implements Predicate. Like Value.Compare, a mixed int/float
// comparison widens both sides to float64.
func (c Cmp) Bind(ds *dataset.Dataset) (RangeEval, error) {
	i, kind, err := c.column(ds.Schema())
	if err != nil {
		return nil, err
	}
	switch {
	case kind == dataset.KindString:
		strs, valid := ds.Strings(i)
		return cmpRange(strs, valid, c.Val.AsString(), c.Op), nil
	case kind == dataset.KindFloat:
		flts, valid := ds.Floats(i)
		return cmpRange(flts, valid, c.Val.AsFloat(), c.Op), nil
	case c.Val.Kind() == dataset.KindInt:
		ints, valid := ds.Ints(i)
		return cmpRange(ints, valid, c.Val.AsInt(), c.Op), nil
	}
	ints, valid := ds.Ints(i)
	k, op := c.Val.AsFloat(), c.Op
	return func(lo, hi int, mask []bool) {
		for r := lo; r < hi; r++ {
			mask[r-lo] = valid[r] && holds(op, float64(ints[r]), k)
		}
	}, nil
}

// cmpRange compares a typed vector against a constant of its own type.
func cmpRange[T int64 | float64 | string](xs []T, valid []bool, k T, op Op) RangeEval {
	return func(lo, hi int, mask []bool) {
		for r := lo; r < hi; r++ {
			mask[r-lo] = valid[r] && holds(op, xs[r], k)
		}
	}
}

// holds is op applied to Value.Compare's three-way result, in which
// anything neither below nor above (a NaN) counts as equal.
func holds[T int64 | float64 | string](op Op, x, k T) bool {
	switch op {
	case Eq:
		return !(x < k) && !(x > k)
	case Ne:
		return x < k || x > k
	case Lt:
		return x < k
	case Le:
		return !(x > k)
	case Gt:
		return x > k
	case Ge:
		return !(x < k)
	}
	return false
}

func (c Cmp) String() string { return fmt.Sprintf("%s %s %s", c.Attr, c.Op, c.Val) }

// IsNull selects rows whose attribute is missing.
type IsNull struct{ Attr string }

// Bind implements Predicate.
func (p IsNull) Bind(ds *dataset.Dataset) (RangeEval, error) {
	present, err := NotNull(p).Bind(ds)
	if err != nil {
		return nil, err
	}
	return negate(present), nil
}

func (p IsNull) String() string { return p.Attr + " is null" }

// NotNull selects rows whose attribute is present.
type NotNull struct{ Attr string }

// Bind implements Predicate.
func (p NotNull) Bind(ds *dataset.Dataset) (RangeEval, error) {
	i, err := attrIndex(ds.Schema(), p.Attr)
	if err != nil {
		return nil, err
	}
	valid := ds.Valid(i)
	return func(lo, hi int, mask []bool) { copy(mask, valid[lo:hi]) }, nil
}

func (p NotNull) String() string { return p.Attr + " is not null" }

// And is the conjunction of its parts.
type And []Predicate

// Bind implements Predicate.
func (a And) Bind(ds *dataset.Dataset) (RangeEval, error) { return bindAll(a, ds, true) }

// bindAll binds every part and folds their masks: with and, a row
// matches when every part does (all rows for no parts); without, when
// any does (no row for no parts).
func bindAll(parts []Predicate, ds *dataset.Dataset, and bool) (RangeEval, error) {
	evals := make([]RangeEval, len(parts))
	for i, p := range parts {
		e, err := p.Bind(ds)
		if err != nil {
			return nil, err
		}
		evals[i] = e
	}
	return func(lo, hi int, mask []bool) {
		mask = mask[:hi-lo]
		for i := range mask {
			mask[i] = and
		}
		part := make([]bool, len(mask))
		for _, e := range evals {
			e(lo, hi, part)
			for i, ok := range part {
				if ok != and {
					mask[i] = ok
				}
			}
		}
	}, nil
}

func (a And) String() string {
	s := ""
	for i, p := range a {
		if i > 0 {
			s += " and "
		}
		s += "(" + p.String() + ")"
	}
	return s
}

// Or is the disjunction of its parts.
type Or []Predicate

// Bind implements Predicate.
func (o Or) Bind(ds *dataset.Dataset) (RangeEval, error) { return bindAll(o, ds, false) }

func (o Or) String() string {
	s := ""
	for i, p := range o {
		if i > 0 {
			s += " or "
		}
		s += "(" + p.String() + ")"
	}
	return s
}

// Not negates a predicate.
type Not struct{ P Predicate }

// Bind implements Predicate.
func (n Not) Bind(ds *dataset.Dataset) (RangeEval, error) {
	e, err := n.P.Bind(ds)
	if err != nil {
		return nil, err
	}
	return negate(e), nil
}

func negate(e RangeEval) RangeEval {
	return func(lo, hi int, mask []bool) {
		e(lo, hi, mask)
		for i, ok := range mask[:hi-lo] {
			mask[i] = !ok
		}
	}
}

func (n Not) String() string { return "not (" + n.P.String() + ")" }

// All matches every row.
type All struct{}

// Bind implements Predicate.
func (All) Bind(*dataset.Dataset) (RangeEval, error) {
	return func(lo, hi int, mask []bool) {
		for i := range mask[:hi-lo] {
			mask[i] = true
		}
	}, nil
}

func (All) String() string { return "true" }
