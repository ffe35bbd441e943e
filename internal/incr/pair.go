package incr

import (
	"fmt"
	"math"
)

// Pair maintainers: finite differencing extends beyond single columns —
// Koenig–Paige difference products of attributes too, which gives
// incrementally recomputable covariance and correlation for the
// relationship questions of Section 2.2.

// PairDelta is one change to a paired observation (x, y).
type PairDelta struct {
	Insert, Delete bool
	OldX, OldY     float64
	NewX, NewY     float64
}

// PairInsertOf returns a PairDelta adding (x, y).
func PairInsertOf(x, y float64) PairDelta { return PairDelta{Insert: true, NewX: x, NewY: y} }

// PairDeleteOf returns a PairDelta removing (x, y).
//
//lint:allow test-only delta algebra leaf for attribute pairs, beside PairInsertOf
func PairDeleteOf(x, y float64) PairDelta { return PairDelta{Delete: true, OldX: x, OldY: y} }

// PairUpdateOf returns a PairDelta replacing (ox, oy) with (nx, ny).
//
//lint:allow test-only delta algebra leaf for attribute pairs, beside PairInsertOf
func PairUpdateOf(ox, oy, nx, ny float64) PairDelta {
	return PairDelta{Insert: true, Delete: true, OldX: ox, OldY: oy, NewX: nx, NewY: ny}
}

// CovarianceM maintains the sample covariance of a pair of columns via
// the sufficient statistics (n, Σx, Σy, Σxy).
type CovarianceM struct {
	n             int64
	sx, sy        float64
	sxx, syy, sxy float64
}

// NewCovariance builds the maintainer over the complete pairs of two
// columns (valid masks may be nil).
//
//lint:allow test-only leaf maintainer: Koenig–Paige finite differencing over attribute pairs (§4.2); no Summary DB entry installs it yet
func NewCovariance(xs, ys []float64, xvalid, yvalid []bool) (*CovarianceM, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("incr: covariance over %d vs %d observations", len(xs), len(ys))
	}
	m := &CovarianceM{}
	m.Rebuild(xs, ys, xvalid, yvalid)
	return m, nil
}

// Name identifies the function.
func (m *CovarianceM) Name() string { return "covariance" }

// Apply folds one pair update. Always succeeds: the sufficient
// statistics subtract exactly.
func (m *CovarianceM) Apply(d PairDelta) {
	if d.Delete {
		m.n--
		m.sx -= d.OldX
		m.sy -= d.OldY
		m.sxx -= d.OldX * d.OldX
		m.syy -= d.OldY * d.OldY
		m.sxy -= d.OldX * d.OldY
	}
	if d.Insert {
		m.n++
		m.sx += d.NewX
		m.sy += d.NewY
		m.sxx += d.NewX * d.NewX
		m.syy += d.NewY * d.NewY
		m.sxy += d.NewX * d.NewY
	}
}

// Value returns the sample covariance (divisor n-1).
func (m *CovarianceM) Value() (float64, error) {
	if m.n < 2 {
		return 0, fmt.Errorf("incr: covariance needs >= 2 pairs, have %d", m.n)
	}
	fn := float64(m.n)
	return (m.sxy - m.sx*m.sy/fn) / (fn - 1), nil
}

// Correlation returns the Pearson correlation from the same statistics.
func (m *CovarianceM) Correlation() (float64, error) {
	if m.n < 2 {
		return 0, fmt.Errorf("incr: correlation needs >= 2 pairs, have %d", m.n)
	}
	fn := float64(m.n)
	vx := m.sxx - m.sx*m.sx/fn
	vy := m.syy - m.sy*m.sy/fn
	if vx <= 0 || vy <= 0 {
		return 0, fmt.Errorf("incr: correlation undefined for constant input")
	}
	cov := m.sxy - m.sx*m.sy/fn
	return cov / math.Sqrt(vx*vy), nil
}

// Rebuild recomputes the statistics from the full columns.
func (m *CovarianceM) Rebuild(xs, ys []float64, xvalid, yvalid []bool) {
	m.n, m.sx, m.sy, m.sxx, m.syy, m.sxy = 0, 0, 0, 0, 0, 0
	for i := range xs {
		if xvalid != nil && !xvalid[i] {
			continue
		}
		if yvalid != nil && !yvalid[i] {
			continue
		}
		m.Apply(PairInsertOf(xs[i], ys[i]))
	}
}

// N returns the number of tracked pairs.
func (m *CovarianceM) N() int64 { return m.n }
