package incr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"statdb/internal/stats"
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
func PairDeleteOf(x, y float64) PairDelta { return PairDelta{Delete: true, OldX: x, OldY: y} }

// PairUpdateOf returns a PairDelta replacing (ox, oy) with (nx, ny).
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
func NewCovariance(xs, ys []float64, xvalid, yvalid []bool) (*CovarianceM, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("incr: covariance over %d vs %d observations", len(xs), len(ys))
	}
	m := &CovarianceM{}
	m.Rebuild(xs, ys, xvalid, yvalid)
	return m, nil
}

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

func TestCovarianceMMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 300
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 5
		ys[i] = 2*xs[i] + rng.NormFloat64()
	}
	m, err := NewCovariance(xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != int64(n) {
		t.Fatalf("N = %d", m.N())
	}
	check := func() {
		t.Helper()
		got, err := m.Value()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := stats.Covariance(xs, ys, nil, nil)
		if !almostEq(got, want, 1e-9*math.Max(1, math.Abs(want))) {
			t.Fatalf("cov = %g, want %g", got, want)
		}
		gr, err := m.Correlation()
		if err != nil {
			t.Fatal(err)
		}
		wr, _ := stats.Correlation(xs, ys, nil, nil)
		if !almostEq(gr, wr, 1e-9) {
			t.Fatalf("corr = %g, want %g", gr, wr)
		}
	}
	check()
	// Stream of pair updates.
	for step := 0; step < 200; step++ {
		i := rng.Intn(n)
		nx, ny := rng.NormFloat64()*5, rng.NormFloat64()*5
		m.Apply(PairUpdateOf(xs[i], ys[i], nx, ny))
		xs[i], ys[i] = nx, ny
		if step%50 == 0 {
			check()
		}
	}
	check()
}

func TestCovarianceMValidity(t *testing.T) {
	xs := []float64{1, 2, 999, 3}
	ys := []float64{2, 4, -999, 6}
	xv := []bool{true, true, false, true}
	m, err := NewCovariance(xs, ys, xv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 3 {
		t.Fatalf("N = %d", m.N())
	}
	r, err := m.Correlation()
	if err != nil || !almostEq(r, 1, 1e-12) {
		t.Errorf("corr = %g, %v", r, err)
	}
}

func TestCovarianceMErrors(t *testing.T) {
	if _, err := NewCovariance([]float64{1}, []float64{1, 2}, nil, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	m, _ := NewCovariance([]float64{1}, []float64{1}, nil, nil)
	if _, err := m.Value(); err == nil {
		t.Error("single pair accepted")
	}
	// Constant input breaks correlation but not covariance.
	m2, _ := NewCovariance([]float64{1, 1}, []float64{2, 3}, nil, nil)
	if _, err := m2.Correlation(); err == nil {
		t.Error("constant-x correlation accepted")
	}
	if _, err := m2.Value(); err != nil {
		t.Errorf("constant-x covariance rejected: %v", err)
	}
	// Delete to below 2 pairs.
	m3, _ := NewCovariance([]float64{1, 2}, []float64{3, 4}, nil, nil)
	m3.Apply(PairDeleteOf(1, 3))
	if _, err := m3.Value(); err == nil {
		t.Error("covariance after delete-to-1 accepted")
	}
}
