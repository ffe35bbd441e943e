package relalg

import (
	"fmt"
	"sort"

	"statdb/internal/dataset"
)

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

// matched copies the masked rows of ds, in row order, into a new data
// set.
func matched(ds *dataset.Dataset, mask []bool) (*dataset.Dataset, error) {
	n := 0
	for _, ok := range mask {
		if ok {
			n++
		}
	}
	out := dataset.New(ds.Schema())
	out.Grow(n)
	for i, ok := range mask {
		if !ok {
			continue
		}
		if err := out.Append(ds.RowAt(i)); err != nil {
			return nil, err
		}
	}
	return out, nil
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
	out := dataset.New(sch)
	out.Grow(ds.Rows())
	for r := 0; r < ds.Rows(); r++ {
		row := make(dataset.Row, len(idx))
		for i, c := range idx {
			row[i] = ds.Cell(r, c)
		}
		if err := out.Append(row); err != nil {
			return nil, err
		}
	}
	return out, nil
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
	out := dataset.New(sch)
	for r := 0; r < ds.Rows(); r++ {
		row := ds.RowAt(r)
		if !row[i].IsNull() {
			label, ok := a.Code.Decode(row[i].AsInt())
			if !ok {
				return nil, fmt.Errorf("relalg: decode: attribute %q code %d not in table %s", attr, row[i].AsInt(), a.Code.Name())
			}
			row[i] = dataset.String(label)
		}
		if err := out.Append(row); err != nil {
			return nil, err
		}
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
	idx := make([]int, len(keys))
	for i, k := range keys {
		idx[i] = ds.Schema().Index(k.Attr)
		if idx[i] < 0 {
			return nil, fmt.Errorf("relalg: sort: no attribute %q", k.Attr)
		}
	}
	order := make([]int, ds.Rows())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		for i, k := range keys {
			cmp := ds.Cell(order[a], idx[i]).Compare(ds.Cell(order[b], idx[i]))
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
	out.Grow(len(order))
	for _, r := range order {
		if err := out.Append(ds.RowAt(r)); err != nil {
			return nil, err
		}
	}
	return out, nil
}
