package incr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"statdb/internal/stats"
)

// The tests below hold the moments state the Summary Database keeps per
// attribute (exec.KeptMoments) to Section 4.2's update model, one Delta
// at a time through Variance: count, sum, mean, variance and standard
// deviation, and the extremes with their multiplicity.

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestCountSumMean(t *testing.T) {
	v := NewVariance([]float64{1, 2, 3}, nil)
	for _, d := range []Delta{{Insert: true, New: 10}, {Delete: true, Old: 2}, UpdateOf(1, 5)} {
		if !v.Apply(d) {
			t.Fatalf("%+v refused", d)
		}
	}
	// Column is now {5, 3, 10}.
	m := v.Moments()
	if m.N != 3 {
		t.Errorf("count = %d", m.N)
	}
	if m.Sum != 18 {
		t.Errorf("sum = %g", m.Sum)
	}
	if mean, _ := m.MeanValue(); mean != 6 {
		t.Errorf("mean = %g", mean)
	}
}

func TestMeanEmptyError(t *testing.T) {
	v := NewVariance(nil, nil)
	if _, err := v.Moments().MeanValue(); err == nil {
		t.Error("mean of empty accepted")
	}
	v.Apply(Delta{Insert: true, New: 4})
	if mean, err := v.Moments().MeanValue(); err != nil || mean != 4 {
		t.Errorf("mean = %g, %v", mean, err)
	}
}

func TestVarianceMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 10
	}
	v := NewVariance(xs, nil)
	cur := append([]float64(nil), xs...)
	// Stream of random updates; after each, compare to batch variance.
	for step := 0; step < 100; step++ {
		i := rng.Intn(len(cur))
		nv := rng.NormFloat64() * 10
		v.Apply(UpdateOf(cur[i], nv))
		cur[i] = nv
		got, err := v.Moments().Variance()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := stats.Variance(cur, nil)
		if !almostEq(got, want, 1e-12*math.Max(1, want)) {
			t.Fatalf("step %d: kept %g vs batch %g", step, got, want)
		}
	}
}

func TestStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	v, err := NewVariance(xs, nil).Moments().Variance()
	if err != nil {
		t.Fatal(err)
	}
	got := math.Sqrt(v)
	want, _ := stats.StdDev(xs, nil)
	if !almostEq(got, want, 1e-12) {
		t.Errorf("sd = %g, want %g", got, want)
	}
	if _, err := NewVariance([]float64{1}, nil).Moments().Variance(); err == nil {
		t.Error("sd of single value accepted")
	}
}

// lost reads which extremes the state has lost to a last-copy delete.
func (v *Variance) lost() (min, max bool) { return v.kept.Lost() }

func TestMinMaxHappyPath(t *testing.T) {
	v := NewVariance([]float64{5, 3, 8, 3}, nil)
	if m := v.Moments(); m.Min != 3 || m.Max != 8 {
		t.Errorf("min, max = %g, %g", m.Min, m.Max)
	}
	// Insert a new global min.
	v.Apply(Delta{Insert: true, New: 1})
	if m := v.Moments(); m.Min != 1 {
		t.Errorf("min = %g", m.Min)
	}
	// Deleting a 3, no longer the minimum, is harmless; so is deleting 5,
	// which never was an extremum.
	for _, old := range []float64{3, 5} {
		if !v.Apply(Delta{Delete: true, Old: old}) {
			t.Fatalf("delete of %g refused", old)
		}
		if lostMin, lostMax := v.lost(); lostMin || lostMax {
			t.Fatalf("delete of the non-extremum %g lost an extremum", old)
		}
	}
	if m := v.Moments(); m.Min != 1 || m.Max != 8 {
		t.Errorf("min, max = %g, %g", m.Min, m.Max)
	}
}

func TestMinDefeatedByExtremumDelete(t *testing.T) {
	v := NewVariance([]float64{5, 3, 8}, nil)
	v.Apply(Delta{Delete: true, Old: 3})
	if lostMin, lostMax := v.lost(); !lostMin || lostMax {
		t.Fatalf("deleting the only copy of min: lost = %v, %v; want min only", lostMin, lostMax)
	}
	// The moments are still exact; only the extremum waits for a rebuild —
	// the Section 4.3 invalidate-then-regenerate path.
	if m := v.Moments(); m.N != 2 || m.Sum != 13 {
		t.Errorf("n, sum = %d, %g", m.N, m.Sum)
	}
	if m := NewVariance([]float64{5, 8}, nil).Moments(); m.Min != 5 {
		t.Errorf("after rebuild: min = %g", m.Min)
	}
}

func TestMinMultiplicityProtects(t *testing.T) {
	v := NewVariance([]float64{3, 3, 7}, nil)
	v.Apply(Delta{Delete: true, Old: 3})
	if lostMin, _ := v.lost(); lostMin || v.Moments().Min != 3 {
		t.Fatalf("delete with remaining duplicate: min %g, lost %v", v.Moments().Min, lostMin)
	}
	v.Apply(Delta{Delete: true, Old: 3})
	if lostMin, _ := v.lost(); !lostMin {
		t.Fatal("deleting the last copy should defeat the minimum")
	}
}

func TestExtremumEmptyTransitions(t *testing.T) {
	v := NewVariance(nil, nil)
	if _, err := v.Moments().MeanValue(); err == nil {
		t.Error("empty state answered")
	}
	v.Apply(Delta{Insert: true, New: 9})
	if m := v.Moments(); m.Min != 9 || m.Max != 9 {
		t.Errorf("min, max = %g, %g", m.Min, m.Max)
	}
	// Deleting back to empty keeps the state representable, and exactly
	// the empty one.
	if !v.Apply(Delta{Delete: true, Old: 9}) {
		t.Fatal("delete to empty refused")
	}
	if lostMin, lostMax := v.lost(); lostMin || lostMax {
		t.Error("an empty state lost an extremum")
	}
	if m := v.Moments(); m != NewVariance(nil, nil).Moments() {
		t.Errorf("emptied state %+v is not the empty one", m)
	}
}

func TestValidityMaskOnRebuild(t *testing.T) {
	xs := []float64{1, 1000, 3}
	valid := []bool{true, false, true}
	m := NewVariance(xs, valid).Moments()
	if m.Sum != 4 {
		t.Errorf("sum = %g", m.Sum)
	}
	if m.N != 2 || m.Missing != 1 {
		t.Errorf("count, missing = %d, %d", m.N, m.Missing)
	}
	if m.Max != 3 {
		t.Errorf("max = %g: the masked cell took part", m.Max)
	}
}

// Property: for any update stream, the state — rebuilt when it refuses a
// delta or loses the minimum — agrees with batch recomputation.
func TestMaintainersAgreeWithBatchProperty(t *testing.T) {
	f := func(initial []int8, updates []int8) bool {
		cur := make([]float64, 0, len(initial))
		for _, v := range initial {
			cur = append(cur, float64(v))
		}
		v := NewVariance(cur, nil)
		for _, u := range updates {
			x := float64(u)
			d := Delta{Insert: true, New: x}
			if u%2 == 0 || len(cur) == 0 {
				cur = append(cur, x)
			} else {
				i := int(math.Abs(x)) % len(cur)
				d = Delta{Delete: true, Old: cur[i]}
				cur = append(cur[:i:i], cur[i+1:]...)
			}
			ok := v.Apply(d)
			if lostMin, _ := v.lost(); !ok || lostMin {
				v = NewVariance(cur, nil)
			}
		}
		m := v.Moments()
		if m.N != int64(len(cur)) || !almostEq(m.Sum, stats.Sum(cur, nil), 1e-6) {
			return false
		}
		if len(cur) > 0 {
			want, _ := stats.Mean(cur, nil)
			if got, err := m.MeanValue(); err != nil || !almostEq(got, want, 1e-6) {
				return false
			}
			if wantMin, _, _ := stats.Extremes(cur, nil); m.Min != wantMin {
				return false
			}
		}
		if len(cur) > 1 {
			want, _ := stats.Variance(cur, nil)
			if got, err := m.Variance(); err != nil || !almostEq(got, want, 1e-6*math.Max(1, want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
