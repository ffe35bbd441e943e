package dataset

import (
	"fmt"
	"slices"
	"strings"
)

// Row is one record of a data set, with one Value per attribute in schema
// order.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Vector is a typed vector plus a validity mask: the in-memory columnar
// storage of one attribute, and (see Gather) the before-image of an
// update. Exactly one of the vectors is non-nil, chosen by the kind.
type Vector struct {
	kind  Kind
	ints  []int64
	flts  []float64
	strs  []string
	valid []bool
	// missing stands in for valid in a before-image, which is never
	// written again: nil when every cell is present, else bit k set marks
	// cell k missing — an eighth of a byte a cell where valid takes one.
	missing []uint64
}

func newVector(k Kind) *Vector { return &Vector{kind: k} }

// Len returns the number of cells.
func (c *Vector) Len() int {
	switch c.kind {
	case KindInt:
		return len(c.ints)
	case KindFloat:
		return len(c.flts)
	default:
		return len(c.strs)
	}
}

// grow reserves room for n more cells.
func (c *Vector) grow(n int) {
	c.valid = slices.Grow(c.valid, n)
	switch c.kind {
	case KindInt:
		c.ints = slices.Grow(c.ints, n)
	case KindFloat:
		c.flts = slices.Grow(c.flts, n)
	case KindString:
		c.strs = slices.Grow(c.strs, n)
	}
}

func (c *Vector) append(v Value) error {
	if v.IsNull() {
		c.valid = append(c.valid, false)
		switch c.kind {
		case KindInt:
			c.ints = append(c.ints, 0)
		case KindFloat:
			c.flts = append(c.flts, 0)
		case KindString:
			c.strs = append(c.strs, "")
		}
		return nil
	}
	if v.kind != c.kind {
		// Widen int literals into float columns; everything else is a
		// type error.
		if c.kind == KindFloat && v.kind == KindInt {
			v = Float(float64(v.i))
		} else {
			return fmt.Errorf("dataset: cannot store %s value in %s column", v.kind, c.kind)
		}
	}
	c.valid = append(c.valid, true)
	switch c.kind {
	case KindInt:
		c.ints = append(c.ints, v.i)
	case KindFloat:
		c.flts = append(c.flts, v.f)
	case KindString:
		c.strs = append(c.strs, v.s)
	}
	return nil
}

// At returns cell i, Null when it is missing.
func (c *Vector) At(i int) Value {
	if c.valid != nil {
		if !c.valid[i] {
			return Null
		}
	} else if c.missing != nil && c.missing[i/64]&(1<<(i%64)) != 0 {
		return Null
	}
	switch c.kind {
	case KindInt:
		return Int(c.ints[i])
	case KindFloat:
		return Float(c.flts[i])
	case KindString:
		return String(c.strs[i])
	}
	return Null
}

func (c *Vector) set(i int, v Value) error {
	if v.IsNull() {
		c.valid[i] = false
		return nil
	}
	if v.kind != c.kind {
		if c.kind == KindFloat && v.kind == KindInt {
			v = Float(float64(v.i))
		} else {
			return fmt.Errorf("dataset: cannot store %s value in %s column", v.kind, c.kind)
		}
	}
	c.valid[i] = true
	switch c.kind {
	case KindInt:
		c.ints[i] = v.i
	case KindFloat:
		c.flts[i] = v.f
	case KindString:
		c.strs[i] = v.s
	}
	return nil
}

func (c *Vector) clone() *Vector {
	out := &Vector{kind: c.kind}
	out.valid = append([]bool(nil), c.valid...)
	out.ints = append([]int64(nil), c.ints...)
	out.flts = append([]float64(nil), c.flts...)
	out.strs = append([]string(nil), c.strs...)
	return out
}

// Dataset is an in-memory flat-file data set: the unit of analysis in the
// paper's model. Storage is columnar (one typed vector per attribute),
// matching the access pattern Section 2.2 identifies — "access to a few
// columns of every row" — while still presenting the flat-file row view
// the statistical packages expect.
type Dataset struct {
	schema *Schema
	cols   []*Vector
	name   string
}

// New creates an empty data set with the given schema.
func New(schema *Schema) *Dataset {
	cols := make([]*Vector, schema.Len())
	for i := range cols {
		cols[i] = newVector(schema.At(i).Kind)
	}
	return &Dataset{schema: schema, cols: cols}
}

// Name returns the data set's name (may be empty).
func (d *Dataset) Name() string { return d.name }

// SetName names the data set; names identify views and raw files.
func (d *Dataset) SetName(n string) { d.name = n }

// Schema returns the data set's schema.
func (d *Dataset) Schema() *Schema { return d.schema }

// Grow reserves room for n more records, so a data set whose size is
// known before it is filled is allocated once, at that size.
func (d *Dataset) Grow(n int) {
	for _, c := range d.cols {
		c.grow(n)
	}
}

// Rows returns the number of records.
func (d *Dataset) Rows() int {
	if len(d.cols) == 0 {
		return 0
	}
	return d.cols[0].Len()
}

// Append adds one record. The row must have one value per attribute.
func (d *Dataset) Append(r Row) error {
	if len(r) != d.schema.Len() {
		return fmt.Errorf("dataset: row has %d values, schema has %d attributes", len(r), d.schema.Len())
	}
	for i, v := range r {
		if err := d.cols[i].append(v); err != nil {
			// Roll back the partial row so columns stay aligned.
			for j := 0; j < i; j++ {
				d.truncLast(j)
			}
			return fmt.Errorf("attribute %q: %w", d.schema.At(i).Name, err)
		}
	}
	return nil
}

func (d *Dataset) truncLast(col int) {
	c := d.cols[col]
	n := c.Len() - 1
	c.valid = c.valid[:n]
	switch c.kind {
	case KindInt:
		c.ints = c.ints[:n]
	case KindFloat:
		c.flts = c.flts[:n]
	case KindString:
		c.strs = c.strs[:n]
	}
}

// Cell returns the value at (row, col).
func (d *Dataset) Cell(row, col int) Value { return d.cols[col].At(row) }

// CellByName returns the value at (row, named column).
func (d *Dataset) CellByName(row int, name string) (Value, error) {
	i := d.schema.Index(name)
	if i < 0 {
		return Null, fmt.Errorf("dataset: no attribute %q", name)
	}
	return d.cols[i].At(row), nil
}

// SetCell stores v at (row, col). Storing Null marks the cell missing —
// the "mark a particular record as invalid" operation of Section 2.2.
func (d *Dataset) SetCell(row, col int, v Value) error {
	if row < 0 || row >= d.Rows() {
		return fmt.Errorf("dataset: row %d out of range [0,%d)", row, d.Rows())
	}
	if col < 0 || col >= d.schema.Len() {
		return fmt.Errorf("dataset: column %d out of range [0,%d)", col, d.schema.Len())
	}
	if err := d.cols[col].set(row, v); err != nil {
		return fmt.Errorf("attribute %q: %w", d.schema.At(col).Name, err)
	}
	return nil
}

// RowAt returns a copy of record i.
func (d *Dataset) RowAt(i int) Row {
	r := make(Row, d.schema.Len())
	for c := range d.cols {
		r[c] = d.cols[c].At(i)
	}
	return r
}

// Clone returns a deep copy of the data set — the basis of concrete view
// snapshots and undo before-images.
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{schema: d.schema, name: d.name, cols: make([]*Vector, len(d.cols))}
	for i, c := range d.cols {
		out.cols[i] = c.clone()
	}
	return out
}

// Ints returns the raw integer vector and validity mask of column col.
// The column must be KindInt. The slices alias the data set; callers must
// not modify them. This is the bulk path the statistical operators use.
func (d *Dataset) Ints(col int) ([]int64, []bool) {
	c := d.cols[col]
	if c.kind != KindInt {
		//lint:allow no-panic documented bulk-accessor contract: kind mismatch is a caller bug
		panic(fmt.Sprintf("dataset: Ints on %s column %q", c.kind, d.schema.At(col).Name))
	}
	return c.ints, c.valid
}

// Valid returns the validity mask of column col, whatever its kind; the
// slice aliases the data set.
func (d *Dataset) Valid(col int) []bool { return d.cols[col].valid }

// Floats returns the raw float vector and validity mask of column col.
// The column must be KindFloat.
func (d *Dataset) Floats(col int) ([]float64, []bool) {
	c := d.cols[col]
	if c.kind != KindFloat {
		//lint:allow no-panic documented bulk-accessor contract: kind mismatch is a caller bug
		panic(fmt.Sprintf("dataset: Floats on %s column %q", c.kind, d.schema.At(col).Name))
	}
	return c.flts, c.valid
}

// Gather copies the cells of column col at the given rows into a new
// Vector, cell k from rows[k] — the columnar before-image a set-at-a-time
// update records: 8 bytes a numeric cell (and a bit, if any is missing)
// where a Value takes 40.
func (d *Dataset) Gather(col int, rows []int32) *Vector {
	c := d.cols[col]
	out := &Vector{kind: c.kind}
	for k, r := range rows {
		if c.valid[r] {
			continue
		}
		if out.missing == nil {
			out.missing = make([]uint64, (len(rows)+63)/64)
		}
		out.missing[k/64] |= 1 << (k % 64)
	}
	switch c.kind {
	case KindInt:
		out.ints = make([]int64, len(rows))
		for k, r := range rows {
			out.ints[k] = c.ints[r]
		}
	case KindFloat:
		out.flts = make([]float64, len(rows))
		for k, r := range rows {
			out.flts[k] = c.flts[r]
		}
	case KindString:
		out.strs = make([]string, len(rows))
		for k, r := range rows {
			out.strs[k] = c.strs[r]
		}
	}
	return out
}

// Strings returns the raw string vector and validity mask of column col.
// The column must be KindString.
func (d *Dataset) Strings(col int) ([]string, []bool) {
	c := d.cols[col]
	if c.kind != KindString {
		//lint:allow no-panic documented bulk-accessor contract: kind mismatch is a caller bug
		panic(fmt.Sprintf("dataset: Strings on %s column %q", c.kind, d.schema.At(col).Name))
	}
	return c.strs, c.valid
}

// NumericColumn returns column col widened to float64 with its validity
// mask, accepting both int and float columns. The returned slices are
// fresh copies for int columns and aliases for float columns; callers
// must treat them as read-only.
func (d *Dataset) NumericColumn(col int) ([]float64, []bool, error) {
	c := d.cols[col]
	switch c.kind {
	case KindFloat:
		return c.flts, c.valid, nil
	case KindInt:
		out := make([]float64, len(c.ints))
		for i, v := range c.ints {
			out[i] = float64(v)
		}
		return out, c.valid, nil
	default:
		return nil, nil, fmt.Errorf("dataset: attribute %q is %s, not numeric", d.schema.At(col).Name, c.kind)
	}
}

// NumericByName is NumericColumn addressed by attribute name.
func (d *Dataset) NumericByName(name string) ([]float64, []bool, error) {
	i := d.schema.Index(name)
	if i < 0 {
		return nil, nil, fmt.Errorf("dataset: no attribute %q", name)
	}
	return d.NumericColumn(i)
}

// AddColumn appends a new attribute filled from values (one per existing
// row). This is the "add a new attribute to the data set to capture the
// results of a time-consuming calculation" update of Section 2.2.
func (d *Dataset) AddColumn(attr Attribute, values []Value) error {
	if len(values) != d.Rows() {
		return fmt.Errorf("dataset: AddColumn %q: %d values for %d rows", attr.Name, len(values), d.Rows())
	}
	sch, err := d.schema.Extend(attr)
	if err != nil {
		return err
	}
	col := newVector(attr.Kind)
	for _, v := range values {
		if err := col.append(v); err != nil {
			return fmt.Errorf("attribute %q: %w", attr.Name, err)
		}
	}
	d.schema = sch
	d.cols = append(d.cols, col)
	return nil
}

// MarkMissing nulls the cell at (row, named column) — invalidating a
// suspicious value found during data checking (Section 2.2).
//
//lint:allow test-only paper-named: invalidating a suspicious measurement during data checking (§2.2)
func (d *Dataset) MarkMissing(row int, name string) error {
	i := d.schema.Index(name)
	if i < 0 {
		return fmt.Errorf("dataset: no attribute %q", name)
	}
	return d.SetCell(row, i, Null)
}

// MissingCount returns the number of missing cells in the named column.
func (d *Dataset) MissingCount(name string) (int, error) {
	i := d.schema.Index(name)
	if i < 0 {
		return 0, fmt.Errorf("dataset: no attribute %q", name)
	}
	n := 0
	for _, ok := range d.cols[i].valid {
		if !ok {
			n++
		}
	}
	return n, nil
}

// String renders the data set as an aligned text table, capped at 20 rows
// for diagnostics.
func (d *Dataset) String() string {
	var b strings.Builder
	names := d.schema.Names()
	b.WriteString(strings.Join(names, "\t"))
	b.WriteByte('\n')
	n := d.Rows()
	const cap = 20
	shown := n
	if shown > cap {
		shown = cap
	}
	for i := 0; i < shown; i++ {
		for c := 0; c < d.schema.Len(); c++ {
			if c > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(d.Cell(i, c).String())
		}
		b.WriteByte('\n')
	}
	if n > cap {
		fmt.Fprintf(&b, "... (%d more rows)\n", n-cap)
	}
	return b.String()
}
