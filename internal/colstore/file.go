package colstore

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"statdb/internal/dataset"
	"statdb/internal/storage"
)

// Encoding selects how a column's pages are laid out.
type Encoding uint8

const (
	// Plain stores fixed-width 8-byte values with a validity bitmap.
	// Supports in-place updates.
	Plain Encoding = iota
	// RLE stores run-length-encoded values. Denser for low-cardinality or
	// sorted columns but updates force a whole-column rewrite — the
	// update-hostility of compressed transposed files the paper notes.
	RLE
)

func (e Encoding) String() string {
	if e == RLE {
		return "rle"
	}
	return "plain"
}

type columnMeta struct {
	name     string
	kind     dataset.Kind
	enc      Encoding
	pages    []storage.PageID
	spare    []storage.PageID // RLE: pages a denser rewrite left over, reused by the next
	rowStart []int            // first logical row of each page
	rows     int
	runs     int              // RLE: coalesced logical runs (maintained by writeRLEPages)
	dict     []string         // string columns: id -> label
	dictIdx  map[string]int64 // string columns: label -> id
}

// File is a transposed file: one contiguous page run per column over a
// shared device.
type File struct {
	pool   *storage.BufferPool
	schema *dataset.Schema
	cols   []*columnMeta
	rows   int
}

// Options configures Load.
type Options struct {
	// Encode selects the encoding per attribute name; attributes absent
	// from the map use Plain.
	Encode map[string]Encoding
}

// Load writes ds into a new transposed file on pool's device, column by
// column so each column's pages are physically contiguous.
func Load(pool *storage.BufferPool, ds *dataset.Dataset, opts Options) (*File, error) {
	if ds.Rows() > math.MaxInt32 {
		// UpdateRows addresses rows as int32.
		return nil, fmt.Errorf("colstore: %d rows, more than the %d a file holds", ds.Rows(), math.MaxInt32)
	}
	f := &File{pool: pool, schema: ds.Schema(), rows: ds.Rows()}
	for c := 0; c < ds.Schema().Len(); c++ {
		attr := ds.Schema().At(c)
		enc := opts.Encode[attr.Name]
		meta, err := writeColumn(pool, ds, c, enc)
		if err != nil {
			return nil, fmt.Errorf("colstore: column %q: %w", attr.Name, err)
		}
		f.cols = append(f.cols, meta)
	}
	return f, nil
}

// columnValues extracts column c of ds as (payload, null) pairs from its
// typed vector, building the dictionary for string columns.
func columnValues(ds *dataset.Dataset, c int, meta *columnMeta) ([]int64, []bool) {
	valid := ds.Valid(c)
	vals := make([]int64, len(valid))
	nulls := make([]bool, len(valid))
	for i, ok := range valid {
		nulls[i] = !ok
	}
	switch meta.kind {
	case dataset.KindInt:
		xs, _ := ds.Ints(c)
		for i, x := range xs {
			if valid[i] {
				vals[i] = x
			}
		}
	case dataset.KindFloat:
		xs, _ := ds.Floats(c)
		for i, x := range xs {
			if valid[i] {
				vals[i] = int64(math.Float64bits(x))
			}
		}
	case dataset.KindString:
		xs, _ := ds.Strings(c)
		for i, s := range xs {
			if !valid[i] {
				continue
			}
			id, ok := meta.dictIdx[s]
			if !ok {
				id = int64(len(meta.dict))
				meta.dict = append(meta.dict, s)
				meta.dictIdx[s] = id
			}
			vals[i] = id
		}
	}
	return vals, nulls
}

func writeColumn(pool *storage.BufferPool, ds *dataset.Dataset, c int, enc Encoding) (*columnMeta, error) {
	attr := ds.Schema().At(c)
	meta := &columnMeta{
		name: attr.Name, kind: attr.Kind, enc: enc,
		rows: ds.Rows(), dictIdx: make(map[string]int64),
	}
	vals, nulls := columnValues(ds, c, meta)
	if enc == RLE {
		return meta, writeRLEPages(pool, meta, vals, nulls)
	}
	return meta, writePlainPages(pool, meta, vals, nulls)
}

func writePlainPages(pool *storage.BufferPool, meta *columnMeta, vals []int64, nulls []bool) error {
	for base := 0; base < len(vals) || (base == 0 && len(vals) == 0); base += plainCap {
		end := base + plainCap
		if end > len(vals) {
			end = len(vals)
		}
		id, page, err := pool.NewPage()
		if err != nil {
			return err
		}
		encodePlainPage(page.Payload(), vals[base:end], nulls[base:end])
		meta.pages = append(meta.pages, id)
		meta.rowStart = append(meta.rowStart, base)
		if err := pool.Unpin(id, true); err != nil {
			return err
		}
		if len(vals) == 0 {
			break
		}
	}
	return nil
}

// writeRLEPages encodes the column into meta's own page run, in order —
// live pages first, then spares — and allocates only past its end; pages
// the new encoding does not need stay on the column as spares. A failed
// write leaves the column torn between the two encodings.
func writeRLEPages(pool *storage.BufferPool, meta *columnMeta, vals []int64, nulls []bool) error {
	reuse := slices.Concat(meta.pages, meta.spare)
	meta.pages, meta.rowStart = nil, nil
	defer func() { meta.spare = reuse }()
	var runs []run
	for i := range vals {
		runs = appendRuns(runs, vals[i], nulls[i])
	}
	meta.runs = len(runs)
	// Pack runs into pages greedily; split runs that cross a page
	// boundary. The header stores the page's logical row count in 16
	// bits, so a page also closes at 65535 logical rows no matter how
	// few bytes its runs occupy (a constant column is one 21-byte run).
	const maxPageLogical = 0xFFFF
	flush := func(pageRuns []run, logical, firstRow int) error {
		var id storage.PageID
		var page *storage.Page
		var err error
		if len(reuse) > 0 {
			id = reuse[0]
			if page, err = pool.Fetch(id); err == nil {
				reuse = reuse[1:]
			}
		} else {
			id, page, err = pool.NewPage()
		}
		if err != nil {
			return err
		}
		pg := rlePage(page.Payload())
		clear(pg)
		pg.setHeader(logical, len(pageRuns))
		out := pg[rleHeader:rleHeader]
		for _, r := range pageRuns {
			out = r.encode(out)
		}
		meta.pages = append(meta.pages, id)
		meta.rowStart = append(meta.rowStart, firstRow)
		return pool.Unpin(id, true)
	}
	var (
		pageRuns []run
		used     = rleHeader
		logical  = 0
		firstRow = 0
		rowCur   = 0
	)
	for _, r := range runs {
		for r.count > 0 {
			need := r.encodedLen()
			if (used+need > storage.PagePayloadSize || logical >= maxPageLogical) && len(pageRuns) > 0 {
				if err := flush(pageRuns, logical, firstRow); err != nil {
					return err
				}
				pageRuns, used, logical, firstRow = nil, rleHeader, 0, rowCur
				continue
			}
			// Take as much of the run as the logical cap allows; a
			// single run encodes in <= 21 bytes, so byte space never
			// blocks an empty page. NumericRunColumn coalesces the split
			// back together on read.
			part := r
			if logical+part.count > maxPageLogical {
				part.count = maxPageLogical - logical
			}
			pageRuns = append(pageRuns, part)
			used += part.encodedLen()
			logical += part.count
			rowCur += part.count
			r.count -= part.count
		}
	}
	if len(pageRuns) > 0 || len(meta.pages) == 0 {
		if err := flush(pageRuns, logical, firstRow); err != nil {
			return err
		}
	}
	return nil
}

// ColumnPages returns the page count of the named column (for the
// compression-ratio experiment).
func (f *File) ColumnPages(name string) (int, error) {
	m, err := f.meta(name)
	if err != nil {
		return 0, err
	}
	return len(m.pages), nil
}

// TotalPages returns the page count across all columns.
func (f *File) TotalPages() int {
	n := 0
	for _, m := range f.cols {
		n += len(m.pages)
	}
	return n
}

// PageIDs returns every device page the file occupies, column by column
// in file order — the walk a verification pass uses.
func (f *File) PageIDs() []storage.PageID {
	var ids []storage.PageID
	for _, m := range f.cols {
		ids = append(ids, m.pages...)
		ids = append(ids, m.spare...)
	}
	return ids
}

func (f *File) meta(name string) (*columnMeta, error) {
	for _, m := range f.cols {
		if m.name == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("colstore: no column %q", name)
}

func (m *columnMeta) toValue(payload int64, null bool) dataset.Value {
	if null {
		return dataset.Null
	}
	switch m.kind {
	case dataset.KindInt:
		return dataset.Int(payload)
	case dataset.KindFloat:
		return dataset.Float(math.Float64frombits(uint64(payload)))
	case dataset.KindString:
		return dataset.String(m.dict[payload])
	}
	return dataset.Null
}

func (m *columnMeta) fromValue(v dataset.Value) (int64, bool, error) {
	if v.IsNull() {
		return 0, true, nil
	}
	switch m.kind {
	case dataset.KindInt:
		if v.Kind() != dataset.KindInt {
			return 0, false, fmt.Errorf("colstore: %s value for int column %q", v.Kind(), m.name)
		}
		return v.AsInt(), false, nil
	case dataset.KindFloat:
		return int64(math.Float64bits(v.AsFloat())), false, nil
	case dataset.KindString:
		s := v.AsString()
		id, ok := m.dictIdx[s]
		if !ok {
			id = int64(len(m.dict))
			m.dict = append(m.dict, s)
			m.dictIdx[s] = id
		}
		return id, false, nil
	}
	return 0, false, fmt.Errorf("colstore: bad column kind")
}

func (f *File) pageValues(m *columnMeta, pageIdx int) ([]int64, []bool, error) {
	return f.pageValuesInto(m, pageIdx, nil, nil)
}

// pageValuesInto is pageValues decoding into the caller's scratch
// slices, so a multi-page scan allocates once instead of per page. The
// returned slices alias the scratch and are valid until the next call.
func (f *File) pageValuesInto(m *columnMeta, pageIdx int, vals []int64, nulls []bool) ([]int64, []bool, error) {
	id := m.pages[pageIdx]
	page, err := f.pool.Fetch(id)
	if err != nil {
		return nil, nil, err
	}
	if m.enc == RLE {
		vals, nulls, err = decodeRLEPageInto(page.Payload(), vals, nulls)
	} else {
		vals, nulls = decodePlainPageInto(page.Payload(), vals, nulls)
	}
	if uerr := f.pool.Unpin(id, false); uerr != nil && err == nil {
		err = uerr
	}
	return vals, nulls, err
}

// ScanColumn streams every value of the named column in row order. This
// is the statistical-operation access path: it touches only the column's
// own pages, sequentially.
func (f *File) ScanColumn(name string, fn func(row int, v dataset.Value) bool) error {
	m, err := f.meta(name)
	if err != nil {
		return err
	}
	row := 0
	var vals []int64
	var nulls []bool
	for p := range m.pages {
		var err error
		vals, nulls, err = f.pageValuesInto(m, p, vals, nulls)
		if err != nil {
			return err
		}
		for i := range vals {
			if !fn(row, m.toValue(vals[i], nulls[i])) {
				return nil
			}
			row++
		}
	}
	return nil
}

// NumericColumn reads the named column widened to float64 with a validity
// mask — the bulk interface the statistical operators consume. Each page
// decodes straight into the result: the two slices returned are all a
// read allocates.
func (f *File) NumericColumn(name string) ([]float64, []bool, error) {
	m, err := f.meta(name)
	if err != nil {
		return nil, nil, err
	}
	if m.kind == dataset.KindString {
		return nil, nil, fmt.Errorf("colstore: column %q is string, not numeric", name)
	}
	out := make([]float64, f.rows)
	valid := make([]bool, f.rows)
	decode := decodePlainNumeric
	if m.enc == RLE {
		decode = decodeRLENumeric
	}
	float := m.kind == dataset.KindFloat
	for p, id := range m.pages {
		page, err := f.pool.Fetch(id)
		if err != nil {
			return nil, nil, err
		}
		base := m.rowStart[p]
		err = decode(page.Payload(), float, out[base:], valid[base:])
		if uerr := f.pool.Unpin(id, false); uerr != nil && err == nil {
			err = uerr
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return out, valid, nil
}

// RowAt reconstructs logical record i — the "informational query" path.
// It touches one page in every column's page run, which on a seek-charging
// device is the poor-performance case Section 2.6 predicts.
func (f *File) RowAt(i int) (dataset.Row, error) {
	if i < 0 || i >= f.rows {
		return nil, fmt.Errorf("colstore: row %d out of range [0,%d)", i, f.rows)
	}
	row := make(dataset.Row, len(f.cols))
	for c, m := range f.cols {
		p := sort.Search(len(m.rowStart), func(k int) bool { return m.rowStart[k] > i }) - 1
		vals, nulls, err := f.pageValues(m, p)
		if err != nil {
			return nil, err
		}
		off := i - m.rowStart[p]
		if off >= len(vals) {
			return nil, fmt.Errorf("colstore: column %q page %d short: want offset %d of %d", m.name, p, off, len(vals))
		}
		row[c] = m.toValue(vals[off], nulls[off])
	}
	return row, nil
}

// UpdateValue overwrites (row, named column): UpdateRows of one row.
func (f *File) UpdateValue(name string, rowIdx int, v dataset.Value) error {
	if rowIdx < 0 || rowIdx >= f.rows {
		return fmt.Errorf("colstore: row %d out of range [0,%d)", rowIdx, f.rows)
	}
	return f.UpdateRows(name, []int32{int32(rowIdx)}, func(int) dataset.Value { return v })
}

// UpdateRows overwrites the named column at rows, which must be strictly
// ascending: rows[k] receives at(k). A Plain column fetches each touched
// page once and patches the cells' payload bytes and validity bits in
// place. An RLE column is decoded once, changed, and re-encoded once over
// its own pages — the update-hostility of compression the paper warns
// about; callers choosing RLE accept it. A value the column cannot hold
// fails before any page is touched.
func (f *File) UpdateRows(name string, rows []int32, at func(k int) dataset.Value) error {
	m, err := f.meta(name)
	if err != nil {
		return err
	}
	payloads := make([]int64, len(rows))
	nulls := make([]bool, len(rows))
	for k, r := range rows {
		if r < 0 || int(r) >= f.rows {
			return fmt.Errorf("colstore: row %d out of range [0,%d)", r, f.rows)
		}
		if k > 0 && r <= rows[k-1] {
			return fmt.Errorf("colstore: update rows not ascending: %d after %d", r, rows[k-1])
		}
		if payloads[k], nulls[k], err = m.fromValue(at(k)); err != nil {
			return err
		}
	}
	if m.enc == Plain {
		return f.patchPlain(m, rows, payloads, nulls)
	}
	vals := make([]int64, 0, f.rows)
	colNulls := make([]bool, 0, f.rows)
	var pv []int64
	var pn []bool
	for p := range m.pages {
		if pv, pn, err = f.pageValuesInto(m, p, pv, pn); err != nil {
			return err
		}
		vals = append(vals, pv...)
		colNulls = append(colNulls, pn...)
	}
	if len(vals) != f.rows {
		return fmt.Errorf("colstore: column %q has %d values, want %d: %w", m.name, len(vals), f.rows, storage.ErrCorrupt)
	}
	for k, r := range rows {
		vals[r], colNulls[r] = payloads[k], nulls[k]
	}
	return writeRLEPages(f.pool, m, vals, colNulls)
}

// patchPlain writes the cells into their Plain pages, one Fetch and one
// dirty Unpin per touched page; the bytes are those encodePlainPage
// would produce for the changed page.
func (f *File) patchPlain(m *columnMeta, rows []int32, payloads []int64, nulls []bool) error {
	for k := 0; k < len(rows); {
		p := int(rows[k]) / plainCap
		id := m.pages[p]
		page, err := f.pool.Fetch(id)
		if err != nil {
			return err
		}
		pg := plainPage(page.Payload())
		for ; k < len(rows) && int(rows[k])/plainCap == p; k++ {
			pg.set(int(rows[k])-m.rowStart[p], payloads[k], nulls[k])
		}
		if err := f.pool.Unpin(id, true); err != nil {
			return err
		}
	}
	return nil
}

// Materialize reads the whole file back into an in-memory data set, a
// column at a time: each page decodes into typed scratch appended to
// its column.
func (f *File) Materialize() (*dataset.Dataset, error) {
	out := dataset.New(f.schema)
	out.Grow(f.rows)
	var (
		vals  []int64
		nulls []bool
		valid []bool
		flts  []float64
		strs  []string
	)
	for c, m := range f.cols {
		filled := 0
		for p := range m.pages {
			var err error
			if vals, nulls, err = f.pageValuesInto(m, p, vals, nulls); err != nil {
				return nil, err
			}
			if filled+len(vals) > f.rows {
				return nil, fmt.Errorf("colstore: column %q overflows %d rows", m.name, f.rows)
			}
			if m.rowStart[p] != filled {
				return nil, fmt.Errorf("colstore: column %q page %d starts at row %d after %d rows", m.name, p, m.rowStart[p], filled)
			}
			valid = valid[:0]
			for _, null := range nulls {
				valid = append(valid, !null)
			}
			switch m.kind {
			case dataset.KindInt:
				err = dataset.AppendColumn(out, c, vals, valid)
			case dataset.KindFloat:
				flts = flts[:0]
				for _, v := range vals {
					flts = append(flts, math.Float64frombits(uint64(v)))
				}
				err = dataset.AppendColumn(out, c, flts, valid)
			case dataset.KindString:
				strs = strs[:0]
				for i, v := range vals {
					s := ""
					if !nulls[i] {
						s = m.dict[v]
					}
					strs = append(strs, s)
				}
				err = dataset.AppendColumn(out, c, strs, valid)
			}
			if err != nil {
				return nil, err
			}
			filled += len(vals)
		}
		if filled != f.rows {
			return nil, fmt.Errorf("colstore: column %q has %d values, want %d", m.name, filled, f.rows)
		}
	}
	return out, nil
}
