package exec_test

import (
	"math"
	"math/rand"
	"testing"

	"statdb/internal/exec"
	"statdb/internal/stats"
)

// TestMomentsMatchIncr checks the chunk-merged moments, and the kept
// state — the incremental form — folded from the same column, against
// the serial reference operators of stats/desc.go: count and the extremes
// bit for bit, the moments within a relative tolerance.
func TestMomentsMatchIncr(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 25013)
	valid := make([]bool, len(xs))
	for i := range xs {
		xs[i] = math.Floor(rng.NormFloat64()*1000) / 4
		valid[i] = rng.Intn(20) != 0
	}
	approx := func(a, b, rel float64) bool {
		return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
	}
	kept := exec.KeepMoments(xs, valid)
	for name, m := range map[string]exec.Moments{
		"merged": exec.ColumnMoments(exec.New(4), xs, valid, 512),
		"kept":   kept.Moments,
	} {
		if n := stats.Count(xs, valid); m.N != int64(n) || m.Missing != int64(len(xs)-n) {
			t.Errorf("%s: N, Missing = %d, %d; serial count %d of %d", name, m.N, m.Missing, n, len(xs))
		}
		if s := stats.Sum(xs, valid); !approx(m.Sum, s, 1e-12) {
			t.Errorf("%s: Sum = %g, serial %g", name, m.Sum, s)
		}
		if v, _ := stats.Mean(xs, valid); !approx(m.Mean, v, 1e-12) {
			t.Errorf("%s: Mean = %g, serial %g", name, m.Mean, v)
		}
		got, err := m.Variance()
		if v, _ := stats.Variance(xs, valid); err != nil || !approx(got, v, 1e-10) {
			t.Errorf("%s: Variance = %g (%v), serial %g", name, got, err, v)
		}
		lo, hi, _ := stats.Extremes(xs, valid)
		if m.Min != lo {
			t.Errorf("%s: Min = %g, serial %g (must be bit-identical)", name, m.Min, lo)
		}
		if m.Max != hi {
			t.Errorf("%s: Max = %g, serial %g (must be bit-identical)", name, m.Max, hi)
		}
	}
	var minCopies, maxCopies int64
	for i, x := range xs {
		if valid[i] && x == kept.Min {
			minCopies++
		}
		if valid[i] && x == kept.Max {
			maxCopies++
		}
	}
	if kept.MinCopies != minCopies || kept.MaxCopies != maxCopies {
		t.Errorf("copies of the extremes = %d, %d; the column holds %d, %d", kept.MinCopies, kept.MaxCopies, minCopies, maxCopies)
	}
}
