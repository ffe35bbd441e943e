package relalg

import (
	"statdb/internal/dataset"
	"statdb/internal/exec"
)

// SelectWith is Select evaluated through the pool: each chunk of rows
// marks its slice of a shared match mask (disjoint writes), and the
// matching rows are emitted serially in row order — the same output,
// row for row, as Select. A nil or single-worker pool falls back to
// the serial operator.
func SelectWith(p *exec.Pool, ds *dataset.Dataset, pred Predicate, chunk int) (*dataset.Dataset, error) {
	if p == nil || p.Workers() <= 1 {
		return Select(ds, pred)
	}
	eval, err := pred.Compile(ds.Schema())
	if err != nil {
		return nil, err
	}
	n := ds.Rows()
	mask := make([]bool, n)
	if err := p.Run(n, chunk, func(_ int, r exec.Range) error {
		for i := r.Lo; i < r.Hi; i++ {
			mask[i] = eval(ds.RowAt(i))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	out := dataset.New(ds.Schema())
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
