package incr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"statdb/internal/stats"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestCountSumMean(t *testing.T) {
	xs := []float64{1, 2, 3}
	c := NewCount(xs, nil)
	s := NewSum(xs, nil)
	m := NewMean(xs, nil)
	for _, d := range []Delta{InsertOf(10), DeleteOf(2), UpdateOf(1, 5)} {
		c.Apply(d)
		s.Apply(d)
		m.Apply(d)
	}
	// Column is now {5, 3, 10}.
	if v, _ := c.Value(); v != 3 {
		t.Errorf("count = %g", v)
	}
	if v, _ := s.Value(); v != 18 {
		t.Errorf("sum = %g", v)
	}
	if v, _ := m.Value(); v != 6 {
		t.Errorf("mean = %g", v)
	}
}

func TestMeanEmptyError(t *testing.T) {
	m := NewMean(nil, nil)
	if _, err := m.Value(); err == nil {
		t.Error("mean of empty accepted")
	}
	m.Apply(InsertOf(4))
	if v, err := m.Value(); err != nil || v != 4 {
		t.Errorf("mean = %g, %v", v, err)
	}
}

func TestVarianceMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 10
	}
	m := NewVariance(xs, nil)
	cur := append([]float64(nil), xs...)
	// Stream of random updates; after each, compare to batch variance.
	for step := 0; step < 100; step++ {
		i := rng.Intn(len(cur))
		nv := rng.NormFloat64() * 10
		m.Apply(UpdateOf(cur[i], nv))
		cur[i] = nv
		got, err := m.Value()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := stats.Variance(cur, nil)
		if !almostEq(got, want, 1e-6*math.Max(1, want)) {
			t.Fatalf("step %d: incr %g vs batch %g", step, got, want)
		}
	}
}

func TestStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m := NewStdDev(xs, nil)
	got, err := m.Value()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := stats.StdDev(xs, nil)
	if !almostEq(got, want, 1e-12) {
		t.Errorf("sd = %g, want %g", got, want)
	}
	if _, err := NewStdDev([]float64{1}, nil).Value(); err == nil {
		t.Error("sd of single value accepted")
	}
}

func TestMinMaxHappyPath(t *testing.T) {
	xs := []float64{5, 3, 8, 3}
	mn := NewMin(xs, nil)
	mx := NewMax(xs, nil)
	if v, _ := mn.Value(); v != 3 {
		t.Errorf("min = %g", v)
	}
	if v, _ := mx.Value(); v != 8 {
		t.Errorf("max = %g", v)
	}
	// Insert a new global min.
	if !mn.Apply(InsertOf(1)) {
		t.Fatal("insert defeated min")
	}
	if v, _ := mn.Value(); v != 1 {
		t.Errorf("min = %g", v)
	}
	// Delete one of the duplicate 3s: multiplicity protects the value 3
	// path... 3 is no longer min; delete it anyway: harmless.
	if !mn.Apply(DeleteOf(3)) {
		t.Fatal("delete of non-extremum defeated min")
	}
	if v, _ := mn.Value(); v != 1 {
		t.Errorf("min = %g", v)
	}
	// Deleting a non-extremum never defeats max either.
	if !mx.Apply(DeleteOf(5)) {
		t.Fatal("delete of non-extremum defeated max")
	}
}

func TestMinDefeatedByExtremumDelete(t *testing.T) {
	xs := []float64{5, 3, 8}
	mn := NewMin(xs, nil)
	if mn.Apply(DeleteOf(3)) {
		t.Fatal("deleting the only copy of min should defeat the maintainer")
	}
	if _, err := mn.Value(); err == nil {
		t.Error("defeated maintainer still answers")
	}
	// Rebuild restores it — the Section 4.3 invalidate-then-regenerate path.
	mn.Rebuild([]float64{5, 8}, nil)
	if v, err := mn.Value(); err != nil || v != 5 {
		t.Errorf("after rebuild: %g, %v", v, err)
	}
}

func TestMinMultiplicityProtects(t *testing.T) {
	xs := []float64{3, 3, 7}
	mn := NewMin(xs, nil)
	if !mn.Apply(DeleteOf(3)) {
		t.Fatal("delete with remaining duplicate defeated min")
	}
	if v, _ := mn.Value(); v != 3 {
		t.Errorf("min = %g", v)
	}
	if mn.Apply(DeleteOf(3)) {
		t.Fatal("deleting last copy should defeat")
	}
}

func TestExtremumEmptyTransitions(t *testing.T) {
	mn := NewMin(nil, nil)
	if _, err := mn.Value(); err == nil {
		t.Error("empty min accepted")
	}
	if !mn.Apply(InsertOf(9)) {
		t.Fatal("insert into empty defeated")
	}
	if v, _ := mn.Value(); v != 9 {
		t.Errorf("min = %g", v)
	}
	// Deleting back to empty keeps the state representable.
	if !mn.Apply(DeleteOf(9)) {
		t.Fatal("delete to empty defeated")
	}
	if _, err := mn.Value(); err != ErrEmpty {
		t.Errorf("empty error = %v", err)
	}
}

func TestValidityMaskOnRebuild(t *testing.T) {
	xs := []float64{1, 1000, 3}
	valid := []bool{true, false, true}
	s := NewSum(xs, valid)
	if v, _ := s.Value(); v != 4 {
		t.Errorf("sum = %g", v)
	}
	c := NewCount(xs, valid)
	if v, _ := c.Value(); v != 2 {
		t.Errorf("count = %g", v)
	}
}

// Property: for any update stream, maintainers that stay valid agree with
// batch recomputation.
func TestMaintainersAgreeWithBatchProperty(t *testing.T) {
	f := func(initial []int8, updates []int8) bool {
		cur := make([]float64, 0, len(initial))
		for _, v := range initial {
			cur = append(cur, float64(v))
		}
		sum := NewSum(cur, nil)
		mean := NewMean(cur, nil)
		vr := NewVariance(cur, nil)
		mn := NewMin(cur, nil)
		for _, u := range updates {
			x := float64(u)
			if u%2 == 0 || len(cur) == 0 {
				sum.Apply(InsertOf(x))
				mean.Apply(InsertOf(x))
				vr.Apply(InsertOf(x))
				if !mn.Apply(InsertOf(x)) {
					mn.Rebuild(append(cur, x), nil)
				}
				cur = append(cur, x)
			} else {
				i := int(math.Abs(x)) % len(cur)
				old := cur[i]
				sum.Apply(DeleteOf(old))
				mean.Apply(DeleteOf(old))
				vr.Apply(DeleteOf(old))
				rest := append(append([]float64(nil), cur[:i]...), cur[i+1:]...)
				if !mn.Apply(DeleteOf(old)) {
					mn.Rebuild(rest, nil)
				}
				cur = rest
			}
		}
		if got, err := sum.Value(); err != nil || !almostEq(got, stats.Sum(cur, nil), 1e-6) {
			return false
		}
		if len(cur) > 0 {
			want, _ := stats.Mean(cur, nil)
			if got, err := mean.Value(); err != nil || !almostEq(got, want, 1e-6) {
				return false
			}
			wantMin, _ := stats.Min(cur, nil)
			if got, err := mn.Value(); err != nil || got != wantMin {
				return false
			}
		}
		if len(cur) > 1 {
			want, _ := stats.Variance(cur, nil)
			if got, err := vr.Value(); err != nil || !almostEq(got, want, 1e-6*math.Max(1, want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
