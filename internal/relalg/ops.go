package relalg

import (
	"fmt"
	"sort"
	"strings"

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
			if !left.Cell(l, li).Equal(right.Cell(r, ri)) {
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
			if st.min.IsNull() || v.Compare(st.min) < 0 {
				st.min = v
			}
		case AggMax:
			if st.max.IsNull() || v.Compare(st.max) > 0 {
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

// Union appends the rows of b to those of a. Schemas must match in
// names, kinds and order (the category flags may differ: unions of
// extracts lose key-ness).
//
//lint:allow test-only paper-named: one of the traditional relational operations of §2.3; serial reference operator
func Union(a, b *dataset.Dataset) (*dataset.Dataset, error) {
	if !a.Schema().Equal(b.Schema()) {
		return nil, fmt.Errorf("relalg: union of incompatible schemas [%s] and [%s]", a.Schema(), b.Schema())
	}
	out := dataset.New(a.Schema())
	for i := 0; i < a.Rows(); i++ {
		if err := out.Append(a.RowAt(i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < b.Rows(); i++ {
		if err := out.Append(b.RowAt(i)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Distinct removes duplicate rows, keeping first occurrences in order.
//
//lint:allow test-only paper-named: one of the traditional relational operations of §2.3; serial reference operator
func Distinct(ds *dataset.Dataset) (*dataset.Dataset, error) {
	out := dataset.New(ds.Schema())
	seen := make(map[string]bool, ds.Rows())
	var kb strings.Builder
	for i := 0; i < ds.Rows(); i++ {
		kb.Reset()
		for c := 0; c < ds.Schema().Len(); c++ {
			v := ds.Cell(i, c)
			if v.IsNull() {
				kb.WriteString("\x00N")
			} else {
				kb.WriteString(v.String())
			}
			kb.WriteByte(0)
		}
		k := kb.String()
		if seen[k] {
			continue
		}
		seen[k] = true
		if err := out.Append(ds.RowAt(i)); err != nil {
			return nil, err
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

// Extend appends a computed attribute to ds, with fn deriving each new
// cell from its row. The derivation string is recorded in the schema so
// the Management Database can reason about it (Section 3.2).
func Extend(ds *dataset.Dataset, attr dataset.Attribute, fn func(row dataset.Row) dataset.Value) (*dataset.Dataset, error) {
	out := ds.Clone()
	vals := make([]dataset.Value, ds.Rows())
	for i := 0; i < ds.Rows(); i++ {
		vals[i] = fn(ds.RowAt(i))
	}
	if err := out.AddColumn(attr, vals); err != nil {
		return nil, err
	}
	return out, nil
}
