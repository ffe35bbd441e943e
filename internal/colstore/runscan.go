package colstore

import (
	"fmt"
	"math"

	"statdb/internal/dataset"
	"statdb/internal/storage"
)

// This file is the run-native scan path: RLE pages stream out as decoded
// (value, null, count) runs without ever expanding to one entry per row,
// so downstream kernels (exec.FoldMomentsRuns and friends) do O(runs)
// work where the row path does O(rows). Plain pages synthesize runs by
// coalescing adjacent equal values, so every column answers the same API
// and callers choose per column by the runs/rows ratio (ColumnRuns).

// RunChunk is one batch of decoded runs: parallel slices of payload,
// null flag and repetition count, plus the first logical row the batch
// covers. Payloads are the stored form (raw int64 for int
// columns, Float64bits for float, dictionary ids for string). The slices
// are scratch owned by the scan — valid only during the callback.
type RunChunk struct {
	Start  int // first logical row of the chunk
	Vals   []int64
	Nulls  []bool
	Counts []int
}

// runChunkCap bounds the runs buffered per callback. Big enough that the
// per-callback overhead vanishes, small enough to stay cache-resident.
const runChunkCap = 1024

// ScanRunChunks streams the named column as coalesced runs in row order.
// Runs that span page boundaries (the tail run of one page continuing as
// the head run of the next) are merged before delivery, so the stream is
// maximally coalesced regardless of page packing. fn returning an error
// stops the scan. The chunk's slices are reused across callbacks.
func (f *File) ScanRunChunks(name string, fn func(RunChunk) error) error {
	m, err := f.meta(name)
	if err != nil {
		return err
	}
	var (
		chunk   RunChunk
		pending run
		havePen bool
		penRow  int // logical row where pending starts
		rowCur  int
		scratch runScratch
	)
	emit := func() error {
		if len(chunk.Vals) == 0 {
			return nil
		}
		err := fn(chunk)
		chunk.Vals = chunk.Vals[:0]
		chunk.Nulls = chunk.Nulls[:0]
		chunk.Counts = chunk.Counts[:0]
		return err
	}
	push := func(r run) error {
		if havePen {
			if pending.null == r.null && (r.null || pending.value == r.value) {
				pending.count += r.count
				rowCur += r.count
				return nil
			}
			if len(chunk.Vals) == 0 {
				chunk.Start = penRow
			}
			chunk.Vals = append(chunk.Vals, pending.value)
			chunk.Nulls = append(chunk.Nulls, pending.null)
			chunk.Counts = append(chunk.Counts, pending.count)
			if len(chunk.Vals) >= runChunkCap {
				if err := emit(); err != nil {
					return err
				}
			}
		}
		pending, havePen, penRow = r, true, rowCur
		rowCur += r.count
		return nil
	}
	for p := range m.pages {
		runs, err := f.pageRuns(m, p, &scratch)
		if err != nil {
			return err
		}
		for _, r := range runs {
			if err := push(r); err != nil {
				return err
			}
		}
	}
	if havePen {
		if len(chunk.Vals) == 0 {
			chunk.Start = penRow
		}
		chunk.Vals = append(chunk.Vals, pending.value)
		chunk.Nulls = append(chunk.Nulls, pending.null)
		chunk.Counts = append(chunk.Counts, pending.count)
	}
	if rowCur != m.rows {
		return fmt.Errorf("colstore: column %q runs cover %d rows, meta says %d: %w",
			name, rowCur, m.rows, storage.ErrCorrupt)
	}
	return emit()
}

// runScratch is the per-scan reusable decode state.
type runScratch struct {
	runs  []run
	vals  []int64
	nulls []bool
}

// pageRuns decodes one page into runs. RLE pages decode run for run with
// no row expansion; Plain pages decode values and coalesce. The returned
// slice aliases sc and is valid until the next call.
func (f *File) pageRuns(m *columnMeta, pageIdx int, sc *runScratch) ([]run, error) {
	id := m.pages[pageIdx]
	page, err := f.pool.Fetch(id)
	if err != nil {
		return nil, err
	}
	sc.runs = sc.runs[:0]
	if m.enc == RLE {
		sc.runs, err = decodeRLEPageRuns(page.Payload(), sc.runs)
	} else {
		sc.vals, sc.nulls = decodePlainPageInto(page.Payload(), sc.vals, sc.nulls)
		for i := range sc.vals {
			sc.runs = appendRuns(sc.runs, sc.vals[i], sc.nulls[i])
		}
	}
	if uerr := f.pool.Unpin(id, false); uerr != nil && err == nil {
		err = uerr
	}
	return sc.runs, err
}

// decodeRLEPageRuns parses an RLE page's runs without expansion,
// appending to dst. The header's logical count is validated against the
// run-count sum — a mismatch is corruption, not a usage error.
func decodeRLEPageRuns(buf []byte, dst []run) ([]run, error) {
	logical := int(buf[0]) | int(buf[1])<<8
	nruns := int(buf[2]) | int(buf[3])<<8
	rest := buf[4:]
	covered := 0
	for i := 0; i < nruns; i++ {
		r, tail, err := decodeRun(rest)
		if err != nil {
			return dst, fmt.Errorf("%w: %w", storage.ErrCorrupt, err)
		}
		rest = tail
		covered += r.count
		dst = append(dst, r)
	}
	if covered != logical {
		return dst, fmt.Errorf("colstore: page runs cover %d rows, header says %d: %w",
			covered, logical, storage.ErrCorrupt)
	}
	return dst, nil
}

// NumericRunColumn reads the named numeric column as whole-column runs
// widened to float64 — the bulk form of ScanRunChunks for run-native
// kernels that want one contiguous (vals, nulls, counts) triple. Memory
// is O(runs), not O(rows).
func (f *File) NumericRunColumn(name string) (vals []float64, nulls []bool, counts []int64, err error) {
	m, err := f.meta(name)
	if err != nil {
		return nil, nil, nil, err
	}
	if m.kind == dataset.KindString {
		return nil, nil, nil, fmt.Errorf("colstore: column %q is string, not numeric", name)
	}
	err = f.ScanRunChunks(name, func(c RunChunk) error {
		for i, v := range c.Vals {
			if c.Nulls[i] {
				vals = append(vals, 0)
			} else if m.kind == dataset.KindFloat {
				vals = append(vals, math.Float64frombits(uint64(v)))
			} else {
				vals = append(vals, float64(v))
			}
			nulls = append(nulls, c.Nulls[i])
			counts = append(counts, int64(c.Counts[i]))
		}
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return vals, nulls, counts, nil
}

// ColumnRuns returns the coalesced logical run count of the named
// column. RLE columns answer from metadata in O(1); Plain columns report
// their row count — in-place updates would silently stale a stored run
// count, so the row path never claims a run advantage for them.
func (f *File) ColumnRuns(name string) (int, error) {
	m, err := f.meta(name)
	if err != nil {
		return 0, err
	}
	if m.enc == RLE {
		return m.runs, nil
	}
	return m.rows, nil
}

// ColumnEncoding returns the named column's page encoding.
func (f *File) ColumnEncoding(name string) (Encoding, error) {
	m, err := f.meta(name)
	if err != nil {
		return Plain, err
	}
	return m.enc, nil
}

// SuggestEncodings chooses a per-attribute encoding for ds by measuring
// each column's coalesced run count: RLE when runs <= rows/4 (the
// compression must be decisive — RLE makes updates a whole-column
// rewrite, so marginal wins don't pay), Plain otherwise. This is the
// data-driven form of the paper's Section 2.6 claim that RLE suits
// sorted or low-cardinality columns.
func SuggestEncodings(ds *dataset.Dataset) map[string]Encoding {
	out := make(map[string]Encoding, ds.Schema().Len())
	rows := ds.Rows()
	for c := 0; c < ds.Schema().Len(); c++ {
		attr := ds.Schema().At(c)
		if rows == 0 {
			out[attr.Name] = Plain
			continue
		}
		runs := 1
		prev := ds.Cell(0, c)
		for r := 1; r < rows; r++ {
			v := ds.Cell(r, c)
			same := (v.IsNull() && prev.IsNull()) || (!v.IsNull() && !prev.IsNull() && v.Equal(prev))
			if !same {
				runs++
				prev = v
			}
		}
		if runs*4 <= rows {
			out[attr.Name] = RLE
		} else {
			out[attr.Name] = Plain
		}
	}
	return out
}
