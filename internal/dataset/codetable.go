package dataset

import (
	"fmt"
	"sort"
)

// CodeTable interprets encoded attribute values (Figure 2 of the paper).
// Category attribute values are frequently encoded to reduce storage
// space — e.g. AGE_GROUP 1 means "0 to 20" — and a table such as this one
// must be used to interpret them. The paper notes that for the 1970
// census the code book ran over 200 pages; here it is a first-class,
// joinable object so the "manual look-up" failure mode of the statistical
// packages (Section 2.4) does not arise.
type CodeTable struct {
	name   string
	labels map[int64]string
	codes  map[string]int64
}

// NewCodeTable creates an empty code table. The name identifies the
// encoding (e.g. "AGE_GROUP") and is used when the table is materialized
// as a data set for joins.
func NewCodeTable(name string) *CodeTable {
	return &CodeTable{
		name:   name,
		labels: make(map[int64]string),
		codes:  make(map[string]int64),
	}
}

// Name returns the encoding name.
func (t *CodeTable) Name() string { return t.name }

// Define binds code to label. Redefining a code replaces its label;
// binding a label already bound to a different code is an error, since a
// decode followed by an encode must round-trip. This is the kind of
// inconsistency the paper warns about when the 1970 and 1980 censuses
// used different code values.
func (t *CodeTable) Define(code int64, label string) error {
	if prev, ok := t.codes[label]; ok && prev != code {
		return fmt.Errorf("dataset: code table %s: label %q already bound to code %d", t.name, label, prev)
	}
	if old, ok := t.labels[code]; ok {
		delete(t.codes, old)
	}
	t.labels[code] = label
	t.codes[label] = code
	return nil
}

// MustDefine is Define that panics on error, for static table literals.
func (t *CodeTable) MustDefine(code int64, label string) *CodeTable {
	if err := t.Define(code, label); err != nil {
		panic(err)
	}
	return t
}

// Decode returns the label for code.
func (t *CodeTable) Decode(code int64) (string, bool) {
	l, ok := t.labels[code]
	return l, ok
}

// Encode returns the code for label.
func (t *CodeTable) Encode(label string) (int64, bool) {
	c, ok := t.codes[label]
	return c, ok
}

// Len returns the number of defined codes.
func (t *CodeTable) Len() int { return len(t.labels) }

// Codes returns the defined codes in ascending order.
func (t *CodeTable) Codes() []int64 {
	out := make([]int64, 0, len(t.labels))
	for c := range t.labels {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Dataset materializes the code table as a two-column data set
// (CATEGORY, VALUE) exactly as Figure 2 shows, so the relational join
// operator can decode encoded attributes (Section 2.4).
func (t *CodeTable) Dataset() *Dataset {
	sch := MustSchema(
		Attribute{Name: "CATEGORY", Kind: KindInt, Category: true},
		Attribute{Name: "VALUE", Kind: KindString},
	)
	ds := New(sch)
	for _, c := range t.Codes() {
		if err := ds.Append(Row{Int(c), String(t.labels[c])}); err != nil {
			//lint:allow no-panic Codes() only returns defined codes, so the append cannot fail
			panic(err)
		}
	}
	return ds
}

// Diff reports labels that differ between two code tables for the same
// code — the cross-vintage inconsistency check the paper motivates with
// the 1970-vs-1980 census example.
//
//lint:allow test-only paper-named: the 1970-vs-1980 code-table inconsistency check
func (t *CodeTable) Diff(o *CodeTable) []CodeConflict {
	var out []CodeConflict
	for _, c := range t.Codes() {
		if other, ok := o.labels[c]; ok && other != t.labels[c] {
			out = append(out, CodeConflict{Code: c, A: t.labels[c], B: other})
		}
	}
	return out
}

// CodeConflict is one code bound to different labels in two tables.
type CodeConflict struct {
	Code int64
	A, B string
}
