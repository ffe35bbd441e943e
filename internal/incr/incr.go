// Package incr is the update model of Section 4.2's finite
// differencing: a Delta is one change to a column — an insert, a delete,
// or the two composed — and the Summary Database folds every delta batch
// into the state it keeps per attribute instead of re-reading the column.
// Koenig and Paige [KOEN81] treat totals and averages; the moments state
// (exec.KeptMoments) carries count, sum, mean, variance and the extremes
// with their multiplicity, which the paper singles out as mostly
// insensitive to updates but occasionally in need of a rebuild.
package incr

import "statdb/internal/exec"

// Delta is one change to the underlying column (see exec.Delta).
type Delta = exec.Delta

// UpdateOf returns a Delta replacing old with new.
func UpdateOf(old, new float64) Delta { return Delta{Insert: true, Delete: true, Old: old, New: new} }

// Variance is the f′ of Figure 5 for the sample variance: the moments
// state the Summary Database keeps per attribute, taking one Delta at a
// time.
type Variance struct{ kept exec.KeptMoments }

// NewVariance folds the initial column.
func NewVariance(xs []float64, valid []bool) *Variance {
	return &Variance{kept: exec.KeepMoments(xs, valid)}
}

// Apply folds one update in. It reports false when the state can no
// longer answer and must be rebuilt from the column (see
// exec.KeptMoments.Apply).
func (v *Variance) Apply(d Delta) bool { return v.kept.Apply([]Delta{d}) }

// Moments returns the state every moments row finalizes from: the
// variance is Moments().Variance().
func (v *Variance) Moments() exec.Moments { return v.kept.Moments }
