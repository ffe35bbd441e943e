package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDescriptiveBasics(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Count(xs, nil); got != 8 {
		t.Errorf("Count = %d", got)
	}
	if got := Sum(xs, nil); got != 40 {
		t.Errorf("Sum = %g", got)
	}
	m, err := Mean(xs, nil)
	if err != nil || m != 5 {
		t.Errorf("Mean = %g, %v", m, err)
	}
	v, err := Variance(xs, nil)
	if err != nil || !almostEq(v, 32.0/7, 1e-12) {
		t.Errorf("Variance = %g, %v", v, err)
	}
	sd, _ := StdDev(xs, nil)
	if !almostEq(sd, math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("StdDev = %g", sd)
	}
	mn, _ := Min(xs, nil)
	mx, _ := Max(xs, nil)
	if mn != 2 || mx != 9 {
		t.Errorf("min/max = %g/%g", mn, mx)
	}
	mode, n, _ := Mode(xs, nil)
	if mode != 4 || n != 3 {
		t.Errorf("Mode = %g (%d)", mode, n)
	}
	if u := UniqueCount(xs, nil); u != 5 {
		t.Errorf("UniqueCount = %d", u)
	}
}

func TestValidityMaskSkipsMissing(t *testing.T) {
	xs := []float64{1, 1000, 3}
	valid := []bool{true, false, true}
	if got := Count(xs, valid); got != 2 {
		t.Errorf("Count = %d", got)
	}
	m, _ := Mean(xs, valid)
	if m != 2 {
		t.Errorf("Mean = %g", m)
	}
	mx, _ := Max(xs, valid)
	if mx != 3 {
		t.Errorf("Max = %g", mx)
	}
}

func TestEmptyAndDegenerateErrors(t *testing.T) {
	if _, err := Mean(nil, nil); err == nil {
		t.Error("Mean of empty accepted")
	}
	if _, err := Min([]float64{1}, []bool{false}); err == nil {
		t.Error("Min of all-missing accepted")
	}
	if _, err := Variance([]float64{1}, nil); err == nil {
		t.Error("Variance of single value accepted")
	}
	if _, _, err := Mode(nil, nil); err == nil {
		t.Error("Mode of empty accepted")
	}
	if _, err := Median(nil, nil); err == nil {
		t.Error("Median of empty accepted")
	}
}

func TestFrequencies(t *testing.T) {
	vals, counts := Frequencies([]float64{3, 1, 3, 2, 3, 1}, nil)
	wantV := []float64{1, 2, 3}
	wantC := []int{2, 1, 3}
	if len(vals) != 3 {
		t.Fatalf("Frequencies = %v %v", vals, counts)
	}
	for i := range wantV {
		if vals[i] != wantV[i] || counts[i] != wantC[i] {
			t.Errorf("bucket %d = (%g,%d)", i, vals[i], counts[i])
		}
	}
	// A NaN (import parses one) is one value, counted once, sorted first.
	vals, counts = Frequencies([]float64{2, math.NaN(), 2, math.NaN(), math.NaN()}, nil)
	if len(vals) != 2 || !math.IsNaN(vals[0]) || counts[0] != 3 || vals[1] != 2 || counts[1] != 2 {
		t.Errorf("Frequencies with NaNs = %v %v, want [NaN 2] [3 2]", vals, counts)
	}
}

func TestQuantilesAndMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	med, err := Median(xs, nil)
	if err != nil || med != 3 {
		t.Errorf("Median = %g, %v", med, err)
	}
	even := []float64{1, 2, 3, 4}
	med, _ = Median(even, nil)
	if med != 2.5 {
		t.Errorf("even Median = %g", med)
	}
	q, _ := Quantile(xs, nil, 0)
	if q != 1 {
		t.Errorf("Q0 = %g", q)
	}
	q, _ = Quantile(xs, nil, 1)
	if q != 5 {
		t.Errorf("Q1 = %g", q)
	}
	q, _ = Quantile(xs, nil, 0.25)
	if q != 2 {
		t.Errorf("Q.25 = %g", q)
	}
	if _, err := Quantile(xs, nil, 1.5); err == nil {
		t.Error("p > 1 accepted")
	}
	qs, err := Quantiles(xs, nil, []float64{0.05, 0.5, 0.95})
	if err != nil || len(qs) != 3 || qs[1] != 3 {
		t.Errorf("Quantiles = %v, %v", qs, err)
	}
}

func TestOrderStatisticMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 501)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 100
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, k := range []int{1, 2, 10, 250, 500, 501} {
		got, err := OrderStatistic(xs, nil, k)
		if err != nil || got != sorted[k-1] {
			t.Errorf("OrderStatistic(%d) = %g, want %g (%v)", k, got, sorted[k-1], err)
		}
	}
	if _, err := OrderStatistic(xs, nil, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := OrderStatistic(xs, nil, 502); err == nil {
		t.Error("k>n accepted")
	}
}

func TestTrimmedMean(t *testing.T) {
	// One enormous outlier; a 5-95% trim removes it.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 1e9}
	tm, err := TrimmedMean(xs, nil, 0.05, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if tm > 10 {
		t.Errorf("TrimmedMean = %g; outlier not trimmed", tm)
	}
	if _, err := TrimmedMean(xs, nil, 0.9, 0.1); err == nil {
		t.Error("inverted bounds accepted")
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 99}
	valid := []bool{true, true, true, true, true, false}
	s, err := Summarize(xs, valid)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Missing != 1 {
		t.Errorf("N/Missing = %d/%d", s.N, s.Missing)
	}
	if s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Errorf("summary = %+v", s)
	}
	if s.Q1 != 2 || s.Q3 != 4 {
		t.Errorf("quartiles = %g/%g", s.Q1, s.Q3)
	}
	if s.Unique != 5 {
		t.Errorf("Unique = %d", s.Unique)
	}
	if _, err := Summarize(nil, nil); err == nil {
		t.Error("empty summarize accepted")
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	h, err := NewHistogram(xs, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if h.Bins() != 5 || h.Total() != 11 {
		t.Fatalf("bins=%d total=%d", h.Bins(), h.Total())
	}
	// Bins [0,2) [2,4) [4,6) [6,8) [8,10]; 10 lands in the last bin.
	want := []int{2, 2, 2, 2, 3}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Errorf("bin %d = %d, want %d", i, h.Counts[i], w)
		}
	}
	if h.Bin(-0.1) != -1 || h.Bin(10.1) != -1 {
		t.Error("out-of-range values binned")
	}
	if h.Bin(10) != 4 {
		t.Errorf("Bin(10) = %d", h.Bin(10))
	}
	if _, err := NewHistogram(xs, nil, 0); err == nil {
		t.Error("zero bins accepted")
	}
	// Degenerate constant data still bins.
	h2, err := NewHistogram([]float64{3, 3, 3}, nil, 4)
	if err != nil || h2.Total() != 3 {
		t.Errorf("constant histogram: total=%d err=%v", h2.Total(), err)
	}
}

func TestRangeCheckAndKSigma(t *testing.T) {
	// Age recorded as 1000 — the paper's data-checking example.
	ages := []float64{25, 31, 47, 1000, 62, 18}
	bad := RangeCheck(ages, nil, 0, 120)
	if len(bad) != 1 || bad[0] != 3 {
		t.Errorf("RangeCheck = %v", bad)
	}
	out, err := OutsideKSigma(ages, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != 3 {
		t.Errorf("OutsideKSigma = %v", out)
	}
	m, _ := Mean(ages, nil)
	sd, _ := StdDev(ages, nil)
	out2 := OutsideKSigmaWith(ages, nil, m, sd, 2)
	if len(out2) != len(out) || out2[0] != out[0] {
		t.Errorf("cached-path result differs: %v vs %v", out2, out)
	}
}

func TestCrossTabAndChiSquare(t *testing.T) {
	// 2x2 with strong dependence.
	ds := twoColDataset(t, [][2]string{
		{"W", "young"}, {"W", "young"}, {"W", "young"}, {"W", "old"},
		{"B", "young"}, {"B", "old"}, {"B", "old"}, {"B", "old"},
	})
	ct, err := NewCrossTab(ds, "RACE", "AGE")
	if err != nil {
		t.Fatal(err)
	}
	if ct.Total() != 8 {
		t.Fatalf("total = %d", ct.Total())
	}
	rt, colt := ct.RowTotals(), ct.ColTotals()
	if rt[0] != 4 || rt[1] != 4 || colt[0] != 4 || colt[1] != 4 {
		t.Errorf("marginals = %v %v", rt, colt)
	}
	res, err := ct.ChiSquare()
	if err != nil {
		t.Fatal(err)
	}
	if res.DF != 1 {
		t.Errorf("DF = %d", res.DF)
	}
	if !almostEq(res.Statistic, 2.0, 1e-9) { // hand-computed
		t.Errorf("statistic = %g", res.Statistic)
	}
	if res.PValue < 0.15 || res.PValue > 0.16 { // P(chi2_1 >= 2) ~ 0.1573
		t.Errorf("p = %g", res.PValue)
	}
}

func TestChiSquareErrors(t *testing.T) {
	ds := twoColDataset(t, [][2]string{{"W", "young"}, {"W", "old"}})
	ct, err := NewCrossTab(ds, "RACE", "AGE")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ct.ChiSquare(); err == nil {
		t.Error("1-row table accepted")
	}
	if _, err := NewCrossTab(ds, "NOPE", "AGE"); err == nil {
		t.Error("missing attribute accepted")
	}
}

func TestGoodnessOfFit(t *testing.T) {
	// Perfect uniform fit: statistic 0, p ~ 1.
	res, err := GoodnessOfFit([]int{25, 25, 25, 25}, []float64{0.25, 0.25, 0.25, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Statistic != 0 || res.PValue < 0.999 {
		t.Errorf("uniform fit: stat=%g p=%g", res.Statistic, res.PValue)
	}
	// Terrible fit: tiny p.
	res, err = GoodnessOfFit([]int{100, 0, 0, 0}, []float64{0.25, 0.25, 0.25, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue > 1e-10 {
		t.Errorf("bad fit p = %g", res.PValue)
	}
	if _, err := GoodnessOfFit([]int{1, 2}, []float64{0.5}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := GoodnessOfFit([]int{1, 2}, []float64{0.2, 0.2}); err == nil {
		t.Error("non-normalized proportions accepted")
	}
}

func TestChiSquareSurvivalKnownValues(t *testing.T) {
	cases := []struct {
		x    float64
		df   int
		want float64
	}{
		{3.841, 1, 0.05},   // 95th percentile of chi2_1
		{5.991, 2, 0.05},   // chi2_2
		{18.307, 10, 0.05}, // chi2_10
		{0, 1, 1},
	}
	for _, c := range cases {
		got := ChiSquareSurvival(c.x, c.df)
		if !almostEq(got, c.want, 5e-4) {
			t.Errorf("Surv(%g, %d) = %g, want %g", c.x, c.df, got, c.want)
		}
	}
	if !math.IsNaN(ChiSquareSurvival(-1, 1)) || !math.IsNaN(ChiSquareSurvival(1, 0)) {
		t.Error("invalid inputs did not NaN")
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Correlation(xs, ys, nil, nil)
	if err != nil || !almostEq(r, 1, 1e-12) {
		t.Errorf("perfect corr = %g, %v", r, err)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Correlation(xs, neg, nil, nil)
	if !almostEq(r, -1, 1e-12) {
		t.Errorf("negative corr = %g", r)
	}
	if _, err := Correlation(xs, ys[:3], nil, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Correlation([]float64{1, 1}, []float64{2, 3}, nil, nil); err == nil {
		t.Error("constant input accepted")
	}
	// Missing pairs skipped.
	r, err = Correlation(
		[]float64{1, 2, 100, 3}, []float64{2, 4, -5, 6},
		[]bool{true, true, false, true}, nil)
	if err != nil || !almostEq(r, 1, 1e-12) {
		t.Errorf("masked corr = %g, %v", r, err)
	}
}

func TestLinearRegression(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 1 + 2x exactly
	reg, err := LinearRegression(xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(reg.Intercept, 1, 1e-12) || !almostEq(reg.Slope, 2, 1e-12) {
		t.Errorf("fit = %g + %gx", reg.Intercept, reg.Slope)
	}
	if !almostEq(reg.R2, 1, 1e-12) {
		t.Errorf("R2 = %g", reg.R2)
	}
	for i, r := range reg.Residuals {
		if !almostEq(r, 0, 1e-9) {
			t.Errorf("residual %d = %g", i, r)
		}
	}
	if reg.Predict(10) != 21 {
		t.Errorf("Predict(10) = %g", reg.Predict(10))
	}
	// Missing values produce NaN residuals and are excluded from the fit.
	reg, err = LinearRegression(
		[]float64{1, 2, 3, 999}, []float64{3, 5, 7, -1},
		[]bool{true, true, true, false}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reg.N != 3 || !math.IsNaN(reg.Residuals[3]) {
		t.Errorf("masked regression: N=%d res=%v", reg.N, reg.Residuals[3])
	}
	if _, err := LinearRegression([]float64{1, 1}, []float64{2, 3}, nil, nil); err == nil {
		t.Error("constant x accepted")
	}
}

func TestSampling(t *testing.T) {
	idx, err := SampleIndices(1000, 100, 42)
	if err != nil || len(idx) != 100 {
		t.Fatalf("SampleIndices: %d, %v", len(idx), err)
	}
	seen := map[int]bool{}
	for i, v := range idx {
		if v < 0 || v >= 1000 {
			t.Fatalf("index %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate index %d", v)
		}
		seen[v] = true
		if i > 0 && idx[i-1] >= v {
			t.Fatalf("indices not ascending")
		}
	}
	// Deterministic per seed.
	idx2, _ := SampleIndices(1000, 100, 42)
	for i := range idx {
		if idx[i] != idx2[i] {
			t.Fatal("same seed produced different samples")
		}
	}
	idx3, _ := SampleIndices(1000, 100, 43)
	same := true
	for i := range idx {
		if idx[i] != idx3[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical samples")
	}
	// k > n clamps.
	idx4, _ := SampleIndices(5, 10, 1)
	if len(idx4) != 5 {
		t.Errorf("clamped sample = %d", len(idx4))
	}
	if _, err := SampleIndices(5, -1, 1); err == nil {
		t.Error("negative k accepted")
	}
}

func TestSampleMeanApproximatesPopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*10 + 50
	}
	pop, _ := Mean(xs, nil)
	sample, err := SampleValues(xs, nil, 5000, 7)
	if err != nil {
		t.Fatal(err)
	}
	sm, _ := Mean(sample, nil)
	if !almostEq(sm, pop, 0.5) { // ~3.5 sigma of the sampling error
		t.Errorf("sample mean %g vs population %g", sm, pop)
	}
}

// Property: quantile is monotone in p.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			// Bound magnitudes so interpolation differences cannot
			// overflow — an IEEE limitation, not a quantile defect.
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e12))
			}
		}
		if len(xs) == 0 {
			return true
		}
		clamp := func(p float64) float64 {
			p = math.Abs(p)
			return p - math.Floor(p)
		}
		a, b := clamp(p1), clamp(p2)
		if a > b {
			a, b = b, a
		}
		qa, err1 := Quantile(xs, nil, a)
		qb, err2 := Quantile(xs, nil, b)
		return err1 == nil && err2 == nil && qa <= qb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: trimmed mean lies within [min, max].
func TestTrimmedMeanBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			// Bound magnitudes so the sum cannot overflow; overflow is a
			// float limitation, not a trimmed-mean defect.
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e300 {
				xs = append(xs, math.Mod(x, 1e12))
			}
		}
		if len(xs) == 0 {
			return true
		}
		tm, err := TrimmedMean(xs, nil, 0.05, 0.95)
		if err != nil {
			return true
		}
		lo, _ := Min(xs, nil)
		hi, _ := Max(xs, nil)
		return tm >= lo && tm <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
