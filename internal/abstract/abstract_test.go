package abstract

import (
	"math"
	"math/rand"
	"testing"

	"statdb/internal/stats"
)

func normalData(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()*15 + 100
	}
	return xs
}

func TestExactStoredValues(t *testing.T) {
	xs := normalData(5000, 1)
	a, err := Build(xs, nil, 50)
	if err != nil {
		t.Fatal(err)
	}
	wantMean, _ := stats.Mean(xs, nil)
	wantMin, _ := stats.Min(xs, nil)
	wantMax, _ := stats.Max(xs, nil)
	cases := map[string]float64{
		"count": 5000,
		"mean":  wantMean,
		"min":   wantMin,
		"max":   wantMax,
		"range": wantMax - wantMin,
		"sum":   stats.Sum(xs, nil),
	}
	for fn, want := range cases {
		e, err := a.Estimate(fn)
		if err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		if !e.Exact {
			t.Errorf("%s not exact", fn)
		}
		if math.Abs(e.Value-want) > 1e-6*math.Max(1, math.Abs(want)) {
			t.Errorf("%s = %g, want %g", fn, e.Value, want)
		}
	}
}

func TestVarianceInference(t *testing.T) {
	xs := normalData(1000, 2)
	a, err := Build(xs, nil, 50)
	if err != nil {
		t.Fatal(err)
	}
	e, err := a.Estimate("variance")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := stats.Variance(xs, nil)
	if math.Abs(e.Value-want) > 1e-6*want {
		t.Errorf("variance = %g, want %g", e.Value, want)
	}
}

func TestMedianEstimateWithinBound(t *testing.T) {
	xs := normalData(10000, 3)
	a, err := Build(xs, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []string{"q1", "median", "q3"} {
		e, err := a.Estimate(fn)
		if err != nil {
			t.Fatal(err)
		}
		if e.Exact {
			t.Errorf("%s claimed exact", fn)
		}
		p := map[string]float64{"q1": 0.25, "median": 0.5, "q3": 0.75}[fn]
		want, _ := stats.Quantile(xs, nil, p)
		if math.Abs(e.Value-want) > e.Bound+1e-9 {
			t.Errorf("%s estimate %g misses true %g beyond bound %g", fn, e.Value, want, e.Bound)
		}
		if e.Bound <= 0 {
			t.Errorf("%s bound = %g", fn, e.Bound)
		}
	}
}

func TestFinerHistogramTightensBound(t *testing.T) {
	xs := normalData(10000, 4)
	coarse, _ := Build(xs, nil, 10)
	fine, _ := Build(xs, nil, 200)
	ec, _ := coarse.Estimate("median")
	ef, _ := fine.Estimate("median")
	if ef.Bound >= ec.Bound {
		t.Errorf("finer histogram bound %g >= coarser %g", ef.Bound, ec.Bound)
	}
}

func TestModeEstimate(t *testing.T) {
	// Strongly peaked data: mode estimate must land near the peak.
	xs := make([]float64, 0, 1100)
	for i := 0; i < 1000; i++ {
		xs = append(xs, 50)
	}
	for i := 0; i < 100; i++ {
		xs = append(xs, float64(i))
	}
	a, err := Build(xs, nil, 20)
	if err != nil {
		t.Fatal(err)
	}
	e, err := a.Estimate("mode")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Value-50) > e.Bound+1e-9 {
		t.Errorf("mode estimate %g (bound %g) far from 50", e.Value, e.Bound)
	}
}

func TestUnknownFunction(t *testing.T) {
	a, err := Build(normalData(100, 5), nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Estimate("chisq"); err == nil {
		t.Error("unknown function estimated")
	}
	if _, err := a.Estimate("chisq"); err == nil {
		t.Error("Estimate(chisq) has no rule and should error")
	}
	if _, err := a.Estimate("median"); err != nil {
		t.Errorf("Estimate(median): %v", err)
	}
}

func TestEstimateCountInRange(t *testing.T) {
	xs := normalData(20000, 6)
	a, err := Build(xs, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	// True count in [85, 115].
	trueCount := 0.0
	for _, x := range xs {
		if x >= 85 && x <= 115 {
			trueCount++
		}
	}
	e, err := a.EstimateCountInRange(85, 115)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Value-trueCount) > e.Bound+trueCount*0.02 {
		t.Errorf("estimate %g vs true %g (bound %g)", e.Value, trueCount, e.Bound)
	}
	// Whole-range estimate equals n exactly.
	mn, _ := stats.Min(xs, nil)
	mx, _ := stats.Max(xs, nil)
	e, _ = a.EstimateCountInRange(mn, mx)
	if math.Abs(e.Value-20000) > 1e-6 {
		t.Errorf("full-range estimate = %g", e.Value)
	}
	// Empty and inverted ranges.
	e, _ = a.EstimateCountInRange(mx+10, mx+20)
	if e.Value != 0 {
		t.Errorf("out-of-range estimate = %g", e.Value)
	}
	if _, err := a.EstimateCountInRange(10, 5); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, nil, 10); err == nil {
		t.Error("empty build accepted")
	}
	if _, err := Build([]float64{1, 2}, nil, 0); err == nil {
		t.Error("zero-bin build accepted")
	}
}
