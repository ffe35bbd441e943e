package relalg

import (
	"cmp"
	"fmt"
	"sort"

	"statdb/internal/dataset"
)

// Every operator below computes the rows (or columns) of its result,
// then builds it with one dataset.Take: columns move as typed slices,
// and no cell is boxed into a Value.

// Select returns the rows of ds satisfying p.
func Select(ds *dataset.Dataset, p Predicate) (*dataset.Dataset, error) {
	eval, err := p.Bind(ds)
	if err != nil {
		return nil, err
	}
	mask := make([]bool, ds.Rows())
	eval(0, len(mask), mask)
	return matched(ds, mask)
}

// matched gathers the masked rows of ds, in row order, into a new data
// set.
func matched(ds *dataset.Dataset, mask []bool) (*dataset.Dataset, error) {
	rows := make([]int, 0, len(mask))
	for i, ok := range mask {
		if ok {
			rows = append(rows, i)
		}
	}
	return ds.Take(ds.Schema(), nil, rows)
}

// Project returns ds restricted to the named attributes, in order.
func Project(ds *dataset.Dataset, names ...string) (*dataset.Dataset, error) {
	sch, err := ds.Schema().Project(names...)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(names))
	for i, n := range names {
		idx[i] = ds.Schema().Index(n)
	}
	return ds.Take(sch, idx, nil)
}

// Decode replaces the coded attribute attr of ds with its label from the
// attribute's code table, keeping the attribute name. It is the join of
// Figure 1 with Figure 2 that the statistical packages force users to do
// by hand against the code book (Section 2.4).
func Decode(ds *dataset.Dataset, attr string) (*dataset.Dataset, error) {
	i := ds.Schema().Index(attr)
	if i < 0 {
		return nil, fmt.Errorf("relalg: decode: no attribute %q", attr)
	}
	a := ds.Schema().At(i)
	if a.Code == nil {
		return nil, fmt.Errorf("relalg: decode: attribute %q has no code table", attr)
	}
	if a.Kind != dataset.KindInt {
		return nil, fmt.Errorf("relalg: decode: attribute %q is %s, want int", attr, a.Kind)
	}
	attrs := make([]dataset.Attribute, ds.Schema().Len())
	for c := range attrs {
		attrs[c] = ds.Schema().At(c)
	}
	attrs[i].Kind = dataset.KindString
	attrs[i].Code = nil
	sch, err := dataset.NewSchema(attrs...)
	if err != nil {
		return nil, err
	}
	out, err := ds.Take(sch, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("relalg: decode: %w", err)
	}
	return out, nil
}

// SortKey orders a Sort.
type SortKey struct {
	Attr string
	Desc bool
}

// Sort returns ds ordered by the given keys (stable).
func Sort(ds *dataset.Dataset, keys ...SortKey) (*dataset.Dataset, error) {
	cmps := make([]func(a, b int) int, len(keys))
	for i, k := range keys {
		c := ds.Schema().Index(k.Attr)
		if c < 0 {
			return nil, fmt.Errorf("relalg: sort: no attribute %q", k.Attr)
		}
		cmps[i] = keyOrder(ds, c)
	}
	order := make([]int, ds.Rows())
	for i := range order {
		order[i] = i
	}
	// Stable, and sort.SliceStable itself: a NaN key compares equal to
	// every value, so the order is not a strict weak order, and only the
	// same algorithm fed the same answers reproduces it.
	sort.SliceStable(order, func(a, b int) bool {
		for i, k := range keys {
			cmp := cmps[i](order[a], order[b])
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
	return ds.Take(ds.Schema(), nil, order)
}

// keyOrder returns the three-way order of column c's rows a and b read
// from its typed vector: missing cells first and equal to each other,
// ints, floats and strings by their native order, and a NaN equal to
// everything.
func keyOrder(ds *dataset.Dataset, c int) func(a, b int) int {
	valid := ds.Valid(c)
	switch ds.Schema().At(c).Kind {
	case dataset.KindInt:
		xs, _ := ds.Ints(c)
		return cellOrder(xs, valid)
	case dataset.KindFloat:
		xs, _ := ds.Floats(c)
		return cellOrder(xs, valid)
	default:
		xs, _ := ds.Strings(c)
		return cellOrder(xs, valid)
	}
}

func cellOrder[T cmp.Ordered](xs []T, valid []bool) func(a, b int) int {
	return func(a, b int) int {
		switch {
		case !valid[a] && !valid[b]:
			return 0
		case !valid[a]:
			return -1
		case !valid[b]:
			return 1
		case xs[a] < xs[b]:
			return -1
		case xs[a] > xs[b]:
			return 1
		}
		return 0
	}
}
