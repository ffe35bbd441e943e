package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestCovariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	cov, err := Covariance(xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// var(x) = 5/3; cov(x,2x) = 2*var(x).
	if !almostEq(cov, 10.0/3, 1e-12) {
		t.Errorf("cov = %g", cov)
	}
	if _, err := Covariance(xs, ys[:2], nil, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Covariance([]float64{1}, []float64{2}, nil, nil); err == nil {
		t.Error("single pair accepted")
	}
}

func TestRanksWithTies(t *testing.T) {
	r := ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Errorf("rank[%d] = %g, want %g", i, r[i], want[i])
		}
	}
}

func TestSpearmanMonotoneInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = math.Exp(xs[i]) // monotone transform: rho must be 1
	}
	rho, err := SpearmanCorrelation(xs, ys, nil, nil)
	if err != nil || !almostEq(rho, 1, 1e-12) {
		t.Errorf("rho = %g, %v", rho, err)
	}
	// Pearson on the same data is well below 1 (nonlinear).
	r, _ := Correlation(xs, ys, nil, nil)
	if r >= 0.99 {
		t.Errorf("pearson = %g; transform not nonlinear enough", r)
	}
	// Reversed order: rho = -1.
	neg := make([]float64, len(xs))
	for i := range xs {
		neg[i] = -ys[i]
	}
	rho, _ = SpearmanCorrelation(xs, neg, nil, nil)
	if !almostEq(rho, -1, 1e-12) {
		t.Errorf("reversed rho = %g", rho)
	}
}

func TestSpearmanValidity(t *testing.T) {
	xs := []float64{1, 2, 999, 3}
	ys := []float64{1, 2, -999, 3}
	valid := []bool{true, true, false, true}
	rho, err := SpearmanCorrelation(xs, ys, valid, nil)
	if err != nil || !almostEq(rho, 1, 1e-12) {
		t.Errorf("masked rho = %g, %v", rho, err)
	}
	if _, err := SpearmanCorrelation(xs, ys[:3], nil, nil); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestKolmogorovSmirnovAcceptsTrueDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*10 + 50
	}
	d, p, err := KolmogorovSmirnov(xs, nil, NormalCDF(50, 10))
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.01 {
		t.Errorf("true distribution rejected: D=%g p=%g", d, p)
	}
	// Wrong distribution firmly rejected.
	_, p2, err := KolmogorovSmirnov(xs, nil, UniformCDF(0, 100))
	if err != nil {
		t.Fatal(err)
	}
	if p2 > 1e-6 {
		t.Errorf("wrong distribution not rejected: p=%g", p2)
	}
	if _, _, err := KolmogorovSmirnov(nil, nil, NormalCDF(0, 1)); err == nil {
		t.Error("empty data accepted")
	}
}

func TestUniformCDFEdges(t *testing.T) {
	cdf := UniformCDF(0, 10)
	if cdf(-1) != 0 || cdf(11) != 1 || cdf(5) != 0.5 {
		t.Error("uniform CDF wrong")
	}
}

func TestStringFrequencies(t *testing.T) {
	ss := []string{"W", "B", "W", "W", "A", "B", "skip"}
	valid := []bool{true, true, true, true, true, true, false}
	values, counts := StringFrequencies(ss, valid)
	if len(values) != 3 {
		t.Fatalf("values = %v", values)
	}
	if values[0] != "W" || counts[0] != 3 {
		t.Errorf("top = %s/%d", values[0], counts[0])
	}
	// Tie between A(1) and B(2)? B=2 then A=1.
	if values[1] != "B" || counts[1] != 2 || values[2] != "A" || counts[2] != 1 {
		t.Errorf("tail = %v %v", values, counts)
	}
}

func TestFitMultipleExact(t *testing.T) {
	// y = 5 + 2*x1 - 3*x2, exact.
	n := 50
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	ys := make([]float64, n)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < n; i++ {
		x1[i] = rng.Float64() * 10
		x2[i] = rng.Float64() * 5
		ys[i] = 5 + 2*x1[i] - 3*x2[i]
	}
	reg, err := FitMultiple(ys, nil, [][]float64{x1, x2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 2, -3}
	for i, w := range want {
		if !almostEq(reg.Coef[i], w, 1e-8) {
			t.Errorf("coef[%d] = %g, want %g", i, reg.Coef[i], w)
		}
	}
	if !almostEq(reg.R2, 1, 1e-9) {
		t.Errorf("R2 = %g", reg.R2)
	}
}

func TestFitMultipleMatchesSimple(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 300
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 4
		ys[i] = 1.5 + 0.7*xs[i] + rng.NormFloat64()
	}
	simple, err := LinearRegression(xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := FitMultiple(ys, nil, [][]float64{xs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(simple.Intercept, multi.Coef[0], 1e-9) || !almostEq(simple.Slope, multi.Coef[1], 1e-9) {
		t.Errorf("simple (%g,%g) vs multi %v", simple.Intercept, simple.Slope, multi.Coef)
	}
	if !almostEq(simple.R2, multi.R2, 1e-9) {
		t.Errorf("R2 %g vs %g", simple.R2, multi.R2)
	}
}

func TestFitMultipleValidityAndErrors(t *testing.T) {
	ys := []float64{1, 2, 3, 999}
	x1 := []float64{1, 2, 3, 4}
	yv := []bool{true, true, true, false}
	reg, err := FitMultiple(ys, yv, [][]float64{x1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reg.N != 3 || !math.IsNaN(reg.Residuals[3]) {
		t.Errorf("N=%d res=%v", reg.N, reg.Residuals[3])
	}
	if _, err := FitMultiple(ys, nil, nil, nil); err == nil {
		t.Error("no predictors accepted")
	}
	if _, err := FitMultiple(ys, nil, [][]float64{{1, 2}}, nil); err == nil {
		t.Error("short predictor accepted")
	}
	// Collinear predictors rejected.
	if _, err := FitMultiple(ys, nil, [][]float64{x1, x1}, nil); err == nil {
		t.Error("collinear predictors accepted")
	}
	// Too few rows.
	if _, err := FitMultiple([]float64{1, 2}, nil, [][]float64{{1, 2}, {2, 1}}, nil); err == nil {
		t.Error("underdetermined system accepted")
	}
}
