package colstore

import (
	"encoding/binary"
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

// Plain page layout: uint16 count, validity bitmap (plainCap bits), then
// count 8-byte little-endian payloads, all within the page payload
// behind the checksum envelope. plainCap chosen so a full page fits:
// 2 + 60 + 480*8 = 3902 <= storage.PagePayloadSize (4088).
const plainCap = 480

// RLE page layout: uint16 logical count, uint16 run count, runs.

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

// columnValues extracts column c of ds as (payload, null) pairs, building
// the dictionary for string columns.
func columnValues(ds *dataset.Dataset, c int, meta *columnMeta) ([]int64, []bool) {
	n := ds.Rows()
	vals := make([]int64, n)
	nulls := make([]bool, n)
	for i := 0; i < n; i++ {
		v := ds.Cell(i, c)
		if v.IsNull() {
			nulls[i] = true
			continue
		}
		switch meta.kind {
		case dataset.KindInt:
			vals[i] = v.AsInt()
		case dataset.KindFloat:
			vals[i] = int64(math.Float64bits(v.AsFloat()))
		case dataset.KindString:
			s := v.AsString()
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

func encodePlainPage(buf []byte, vals []int64, nulls []bool) {
	for i := range buf {
		buf[i] = 0
	}
	buf[0] = byte(len(vals))
	buf[1] = byte(len(vals) >> 8)
	bitmap := buf[2 : 2+plainCap/8]
	data := buf[2+plainCap/8:]
	for i, v := range vals {
		if !nulls[i] {
			bitmap[i/8] |= 1 << (i % 8)
		}
		binary.LittleEndian.PutUint64(data[i*8:], uint64(v))
	}
}

// decodePlainPageInto decodes a Plain page into the caller's scratch
// slices (grown as needed) — the per-page allocation is the dominant
// cost of a column read over a hot buffer pool (BenchmarkNumericColumn).
func decodePlainPageInto(buf []byte, vals []int64, nulls []bool) ([]int64, []bool) {
	n := int(buf[0]) | int(buf[1])<<8
	bitmap := buf[2 : 2+plainCap/8]
	data := buf[2+plainCap/8:]
	vals = growInt64(vals, n)
	nulls = growBool(nulls, n)
	for i := 0; i < n; i++ {
		vals[i] = int64(binary.LittleEndian.Uint64(data[i*8:]))
		nulls[i] = bitmap[i/8]&(1<<(i%8)) == 0
	}
	return vals, nulls
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
	const header = 4
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
		buf := page.Payload()
		for i := range buf {
			buf[i] = 0
		}
		buf[0] = byte(logical)
		buf[1] = byte(logical >> 8)
		buf[2] = byte(len(pageRuns))
		buf[3] = byte(len(pageRuns) >> 8)
		out := buf[header:header]
		for _, r := range pageRuns {
			out = r.encode(out)
		}
		meta.pages = append(meta.pages, id)
		meta.rowStart = append(meta.rowStart, firstRow)
		return pool.Unpin(id, true)
	}
	var (
		pageRuns []run
		used     = header
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
				pageRuns, used, logical, firstRow = nil, header, 0, rowCur
				continue
			}
			// Take as much of the run as the logical cap allows; a
			// single run encodes in <= 21 bytes, so byte space never
			// blocks an empty page. ScanRunChunks coalesces the split
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

// decodeRLEPageInto expands an RLE page's runs to one value per row,
// reusing the caller's scratch slices.
func decodeRLEPageInto(buf []byte, vals []int64, nulls []bool) ([]int64, []bool, error) {
	logical := int(buf[0]) | int(buf[1])<<8
	nruns := int(buf[2]) | int(buf[3])<<8
	vals = growInt64(vals, 0)
	nulls = growBool(nulls, 0)
	rest := buf[4:]
	for i := 0; i < nruns; i++ {
		var r run
		var err error
		r, rest, err = decodeRun(rest)
		if err != nil {
			return nil, nil, err
		}
		for j := 0; j < r.count; j++ {
			vals = append(vals, r.value)
			nulls = append(nulls, r.null)
		}
	}
	if len(vals) != logical {
		return nil, nil, fmt.Errorf("colstore: page holds %d values, header says %d: %w",
			len(vals), logical, storage.ErrCorrupt)
	}
	return vals, nulls, nil
}

// growInt64 returns s truncated/extended to length n, reallocating only
// when capacity is short.
func growInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// Schema returns the file's schema.
func (f *File) Schema() *dataset.Schema { return f.schema }

// Rows returns the number of logical records.
func (f *File) Rows() int { return f.rows }

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
// mask — the bulk interface the statistical operators consume.
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
	var vals []int64
	var nulls []bool
	for p := range m.pages {
		var err error
		vals, nulls, err = f.pageValuesInto(m, p, vals, nulls)
		if err != nil {
			return nil, nil, err
		}
		base := m.rowStart[p]
		for i := range vals {
			if nulls[i] {
				continue
			}
			if m.kind == dataset.KindFloat {
				out[base+i] = math.Float64frombits(uint64(vals[i]))
			} else {
				out[base+i] = float64(vals[i])
			}
			valid[base+i] = true
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
		buf := page.Payload()
		bitmap := buf[2 : 2+plainCap/8]
		data := buf[2+plainCap/8:]
		for ; k < len(rows) && int(rows[k])/plainCap == p; k++ {
			off := int(rows[k]) - m.rowStart[p]
			binary.LittleEndian.PutUint64(data[off*8:], uint64(payloads[k]))
			if nulls[k] {
				bitmap[off/8] &^= 1 << (off % 8)
			} else {
				bitmap[off/8] |= 1 << (off % 8)
			}
		}
		if err := f.pool.Unpin(id, true); err != nil {
			return err
		}
	}
	return nil
}

// Materialize reads the whole file back into an in-memory data set.
func (f *File) Materialize() (*dataset.Dataset, error) {
	out := dataset.New(f.schema)
	cols := make([][]dataset.Value, len(f.cols))
	var vals []int64
	var nulls []bool
	for c, m := range f.cols {
		cols[c] = make([]dataset.Value, f.rows)
		filled := 0
		for p := range m.pages {
			var err error
			vals, nulls, err = f.pageValuesInto(m, p, vals, nulls)
			if err != nil {
				return nil, err
			}
			base := m.rowStart[p]
			if base+len(vals) > f.rows {
				return nil, fmt.Errorf("colstore: column %q overflows %d rows", m.name, f.rows)
			}
			for i := range vals {
				cols[c][base+i] = m.toValue(vals[i], nulls[i])
			}
			filled += len(vals)
		}
		if filled != f.rows {
			return nil, fmt.Errorf("colstore: column %q has %d values, want %d", m.name, filled, f.rows)
		}
	}
	for i := 0; i < f.rows; i++ {
		row := make(dataset.Row, len(f.cols))
		for c := range f.cols {
			row[c] = cols[c][i]
		}
		if err := out.Append(row); err != nil {
			return nil, err
		}
	}
	return out, nil
}
