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
	eval, err := pred.Bind(ds)
	if err != nil {
		return nil, err
	}
	n := ds.Rows()
	mask := make([]bool, n)
	if err := p.Run(n, chunk, func(_ int, r exec.Range) error {
		eval(r.Lo, r.Hi, mask[r.Lo:r.Hi])
		return nil
	}); err != nil {
		return nil, err
	}
	return matched(ds, mask)
}
