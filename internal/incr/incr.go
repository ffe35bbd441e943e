// Package incr implements incrementally recomputable aggregate functions
// — the finite-differencing idea of Section 4.2. Given a function f
// computed once over a column, the maintainers here are the derived f′:
// they consume a stream of updates (insert / delete / change of a single
// observation) and produce the new function value without re-reading the
// column. Koenig and Paige [KOEN81] treat totals and averages; this
// package covers count, sum, mean, variance/standard deviation (through
// exact sufficient statistics), and min/max with multiplicity, which the
// paper singles out as mostly insensitive to updates but occasionally in
// need of a rebuild.
//
// Apply returns false when incremental maintenance is impossible for the
// update (e.g. deleting the last copy of the current minimum); the caller
// then rebuilds from the data — exactly the invalidate-and-regenerate
// fallback of Section 4.3.
package incr

import (
	"fmt"
	"math"
)

// Delta is one change to the underlying column.
type Delta struct {
	// Insert adds New; Delete removes Old; an update is expressed as the
	// composition Delete(Old)+Insert(New), which Update builds.
	Insert, Delete bool
	Old, New       float64
}

// InsertOf returns a Delta adding x.
//
//lint:allow test-only delta algebra leaf: §4.2's update model has inserts and deletes too; the update verb only issues UpdateOf today
func InsertOf(x float64) Delta { return Delta{Insert: true, New: x} }

// DeleteOf returns a Delta removing x.
//
//lint:allow test-only delta algebra leaf: §4.2's update model has inserts and deletes too; the update verb only issues UpdateOf today
func DeleteOf(x float64) Delta { return Delta{Delete: true, Old: x} }

// UpdateOf returns a Delta replacing old with new.
func UpdateOf(old, new float64) Delta { return Delta{Insert: true, Delete: true, Old: old, New: new} }

// Maintainer is an incrementally recomputable aggregate: the f′ of
// Figure 5.
type Maintainer interface {
	// Name identifies the function ("sum", "mean", ...).
	Name() string
	// Apply folds one update into the state. It reports false when the
	// state can no longer answer exactly and must be rebuilt.
	Apply(d Delta) bool
	// Value returns the current aggregate value.
	Value() (float64, error)
	// Rebuild recomputes the state from the full column.
	Rebuild(xs []float64, valid []bool)
}

// ErrEmpty reports an aggregate over zero observations.
var ErrEmpty = fmt.Errorf("incr: no observations")

// CountM maintains the observation count.
type CountM struct{ n int64 }

// NewCount returns a count maintainer over the initial column.
func NewCount(xs []float64, valid []bool) *CountM {
	m := &CountM{}
	m.Rebuild(xs, valid)
	return m
}

// Name implements Maintainer.
func (m *CountM) Name() string { return "count" }

// Apply implements Maintainer.
func (m *CountM) Apply(d Delta) bool {
	if d.Delete {
		m.n--
	}
	if d.Insert {
		m.n++
	}
	return true
}

// Value implements Maintainer.
func (m *CountM) Value() (float64, error) { return float64(m.n), nil }

// Rebuild implements Maintainer.
func (m *CountM) Rebuild(xs []float64, valid []bool) {
	m.n = 0
	for i := range xs {
		if valid == nil || valid[i] {
			m.n++
		}
	}
}

// SumM maintains the sum — the canonical Koenig–Paige total.
type SumM struct {
	n   int64
	sum float64
}

// NewSum returns a sum maintainer over the initial column.
func NewSum(xs []float64, valid []bool) *SumM {
	m := &SumM{}
	m.Rebuild(xs, valid)
	return m
}

// Name implements Maintainer.
func (m *SumM) Name() string { return "sum" }

// Apply implements Maintainer.
func (m *SumM) Apply(d Delta) bool {
	if d.Delete {
		m.sum -= d.Old
		m.n--
	}
	if d.Insert {
		m.sum += d.New
		m.n++
	}
	return true
}

// Value implements Maintainer.
func (m *SumM) Value() (float64, error) { return m.sum, nil }

// Rebuild implements Maintainer.
func (m *SumM) Rebuild(xs []float64, valid []bool) {
	m.n, m.sum = 0, 0
	for i, x := range xs {
		if valid == nil || valid[i] {
			m.sum += x
			m.n++
		}
	}
}

// MeanM maintains the mean through (n, sum).
type MeanM struct{ SumM }

// NewMean returns a mean maintainer over the initial column.
func NewMean(xs []float64, valid []bool) *MeanM {
	m := &MeanM{}
	m.Rebuild(xs, valid)
	return m
}

// Name implements Maintainer.
func (m *MeanM) Name() string { return "mean" }

// Value implements Maintainer.
func (m *MeanM) Value() (float64, error) {
	if m.n == 0 {
		return 0, ErrEmpty
	}
	return m.sum / float64(m.n), nil
}

// VarianceM maintains the sample variance via the sufficient statistics
// (n, Σx, Σx²). Deletion is exact: the statistics subtract cleanly, the
// finite-differencing property Koenig–Paige exploit for averages extended
// one moment higher.
type VarianceM struct {
	n          int64
	sum, sumsq float64
}

// NewVariance returns a variance maintainer over the initial column.
func NewVariance(xs []float64, valid []bool) *VarianceM {
	m := &VarianceM{}
	m.Rebuild(xs, valid)
	return m
}

// Name implements Maintainer.
func (m *VarianceM) Name() string { return "variance" }

// Apply implements Maintainer.
func (m *VarianceM) Apply(d Delta) bool {
	if d.Delete {
		m.sum -= d.Old
		m.sumsq -= d.Old * d.Old
		m.n--
	}
	if d.Insert {
		m.sum += d.New
		m.sumsq += d.New * d.New
		m.n++
	}
	return true
}

// Value implements Maintainer.
func (m *VarianceM) Value() (float64, error) {
	if m.n < 2 {
		return 0, fmt.Errorf("incr: variance needs >= 2 observations, have %d", m.n)
	}
	fn := float64(m.n)
	v := (m.sumsq - m.sum*m.sum/fn) / (fn - 1)
	if v < 0 {
		v = 0 // guard tiny negative from cancellation
	}
	return v, nil
}

// Rebuild implements Maintainer.
func (m *VarianceM) Rebuild(xs []float64, valid []bool) {
	m.n, m.sum, m.sumsq = 0, 0, 0
	for i, x := range xs {
		if valid == nil || valid[i] {
			m.sum += x
			m.sumsq += x * x
			m.n++
		}
	}
}

// StdDevM maintains the sample standard deviation.
type StdDevM struct{ VarianceM }

// NewStdDev returns a standard-deviation maintainer over the initial column.
func NewStdDev(xs []float64, valid []bool) *StdDevM {
	m := &StdDevM{}
	m.Rebuild(xs, valid)
	return m
}

// Name implements Maintainer.
func (m *StdDevM) Name() string { return "sd" }

// Value implements Maintainer.
func (m *StdDevM) Value() (float64, error) {
	v, err := m.VarianceM.Value()
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// extremumM maintains min or max with the multiplicity of the current
// extremum. As Section 4.2 observes, "most updates to the data set will
// not affect the min or max values"; the one case that defeats it —
// deleting the last copy of the extremum — reports a rebuild.
type extremumM struct {
	name  string
	less  func(a, b float64) bool // a strictly better than b
	n     int64
	ext   float64
	mult  int64 // copies of ext present
	valid bool  // state usable (false after a defeated delete)
}

// NewMin returns a min maintainer over the initial column.
func NewMin(xs []float64, valid []bool) Maintainer {
	m := &extremumM{name: "min", less: func(a, b float64) bool { return a < b }}
	m.Rebuild(xs, valid)
	return m
}

// NewMax returns a max maintainer over the initial column.
func NewMax(xs []float64, valid []bool) Maintainer {
	m := &extremumM{name: "max", less: func(a, b float64) bool { return a > b }}
	m.Rebuild(xs, valid)
	return m
}

func (m *extremumM) Name() string { return m.name }

func (m *extremumM) Apply(d Delta) bool {
	if !m.valid {
		return false
	}
	if d.Delete {
		m.n--
		if d.Old == m.ext {
			m.mult--
			if m.mult == 0 {
				if m.n == 0 {
					m.valid = true // empty is representable
				} else {
					m.valid = false // next extremum unknown without a scan
					return false
				}
			}
		}
	}
	if d.Insert {
		m.n++
		switch {
		case m.n == 1 || m.less(d.New, m.ext):
			m.ext, m.mult = d.New, 1
		case d.New == m.ext:
			m.mult++
		}
	}
	return true
}

func (m *extremumM) Value() (float64, error) {
	if !m.valid {
		return 0, fmt.Errorf("incr: %s state invalidated; rebuild required", m.name)
	}
	if m.n == 0 {
		return 0, ErrEmpty
	}
	return m.ext, nil
}

func (m *extremumM) Rebuild(xs []float64, valid []bool) {
	m.n, m.mult, m.valid = 0, 0, true
	for i, x := range xs {
		if valid != nil && !valid[i] {
			continue
		}
		m.n++
		switch {
		case m.n == 1 || m.less(x, m.ext):
			m.ext, m.mult = x, 1
		case x == m.ext:
			m.mult++
		}
	}
}
