package colstore

import (
	"fmt"
	"math"

	"statdb/internal/dataset"
	"statdb/internal/storage"
)

// This file is the run-native scan path: RLE pages decode to (value,
// null, count) runs without ever expanding to one entry per row,
// so downstream kernels (exec.FoldMomentsRuns and friends) do O(runs)
// work where the row path does O(rows). Plain pages synthesize runs by
// coalescing adjacent equal values, so every column answers the same API
// and callers choose per column by the runs/rows ratio (ColumnRuns).

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

// NumericRunColumn reads the named numeric column as whole-column runs
// widened to float64, in row order — one contiguous (vals, nulls,
// counts) triple for run-native kernels. Memory is O(runs), not O(rows).
// Runs that span page boundaries (the tail run of one page continuing as
// the head run of the next) are merged, so the runs are maximally
// coalesced regardless of page packing. They coalesce on the stored
// payload: -0 and +0 stay apart, NaNs of one bit pattern merge.
func (f *File) NumericRunColumn(name string) (vals []float64, nulls []bool, counts []int64, err error) {
	m, err := f.meta(name)
	if err != nil {
		return nil, nil, nil, err
	}
	if m.kind == dataset.KindString {
		return nil, nil, nil, fmt.Errorf("colstore: column %q is string, not numeric", name)
	}
	var (
		scratch runScratch
		last    int64 // stored payload of the last run appended
		rows    int
	)
	for p := range m.pages {
		runs, err := f.pageRuns(m, p, &scratch)
		if err != nil {
			return nil, nil, nil, err
		}
		for _, r := range runs {
			rows += r.count
			if n := len(counts); n > 0 && nulls[n-1] == r.null && (r.null || last == r.value) {
				counts[n-1] += int64(r.count)
				continue
			}
			x := float64(r.value)
			if r.null {
				x = 0
			} else if m.kind == dataset.KindFloat {
				x = math.Float64frombits(uint64(r.value))
			}
			vals, nulls, counts = append(vals, x), append(nulls, r.null), append(counts, int64(r.count))
			last = r.value
		}
	}
	if rows != m.rows {
		return nil, nil, nil, fmt.Errorf("colstore: column %q runs cover %d rows, meta says %d: %w",
			name, rows, m.rows, storage.ErrCorrupt)
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
		var runs int
		switch valid := ds.Valid(c); attr.Kind {
		case dataset.KindInt:
			xs, _ := ds.Ints(c)
			runs = countRuns(xs, valid)
		case dataset.KindFloat:
			xs, _ := ds.Floats(c)
			runs = countRuns(xs, valid)
		default:
			xs, _ := ds.Strings(c)
			runs = countRuns(xs, valid)
		}
		if runs*4 <= rows {
			out[attr.Name] = RLE
		} else {
			out[attr.Name] = Plain
		}
	}
	return out
}

// countRuns counts the runs of equal neighbouring cells of a non-empty
// column: a missing cell equals a missing cell, -0 equals +0, and a NaN
// equals nothing, so each NaN is a run of its own.
func countRuns[T comparable](xs []T, valid []bool) int {
	runs, head := 1, 0
	for r := 1; r < len(xs); r++ {
		if valid[r] != valid[head] || valid[r] && xs[r] != xs[head] {
			runs++
			head = r
		}
	}
	return runs
}
