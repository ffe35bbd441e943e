package stats

import (
	"fmt"
	"math"
	"sort"
)

// Covariance returns the sample covariance (divisor n-1) of complete
// pairs.
//
//lint:allow test-only leaf statistical operator; serial reference for incr.CovarianceM
func Covariance(xs, ys []float64, xvalid, yvalid []bool) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: covariance over %d vs %d observations", len(xs), len(ys))
	}
	var n int
	var sx, sy, sxy float64
	for i := range xs {
		if xvalid != nil && !xvalid[i] {
			continue
		}
		if yvalid != nil && !yvalid[i] {
			continue
		}
		n++
		sx += xs[i]
		sy += ys[i]
		sxy += xs[i] * ys[i]
	}
	if n < 2 {
		return 0, fmt.Errorf("stats: covariance needs >= 2 complete pairs, have %d", n)
	}
	fn := float64(n)
	return (sxy - sx*sy/fn) / (fn - 1), nil
}

// ranks assigns average ranks (1-based) to values, with ties sharing the
// mean of their rank range — the convention Spearman's rho requires.
func ranks(vals []float64) []float64 {
	n := len(vals)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j < n && vals[idx[j]] == vals[idx[i]] {
			j++
		}
		avg := float64(i+j+1) / 2 // mean of ranks i+1..j
		for k := i; k < j; k++ {
			out[idx[k]] = avg
		}
		i = j
	}
	return out
}

// SpearmanCorrelation returns the rank correlation of complete pairs —
// the robust relationship check for exploratory analysis, insensitive to
// monotone transforms and outliers.
func SpearmanCorrelation(xs, ys []float64, xvalid, yvalid []bool) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: spearman over %d vs %d observations", len(xs), len(ys))
	}
	var px, py []float64
	for i := range xs {
		if xvalid != nil && !xvalid[i] {
			continue
		}
		if yvalid != nil && !yvalid[i] {
			continue
		}
		px = append(px, xs[i])
		py = append(py, ys[i])
	}
	if len(px) < 2 {
		return 0, fmt.Errorf("stats: spearman needs >= 2 complete pairs, have %d", len(px))
	}
	rx, ry := ranks(px), ranks(py)
	return Correlation(rx, ry, nil, nil)
}

// KolmogorovSmirnov tests the valid observations of xs against a
// hypothesized continuous CDF, returning the D statistic and an
// asymptotic p-value — the distribution-check of exploratory analysis
// ("do the data values in a given attribute conform to a particular
// distribution?", Section 2.2).
//
//lint:allow test-only paper-named: the distribution check of §2.2
func KolmogorovSmirnov(xs []float64, valid []bool, cdf func(float64) float64) (d, pvalue float64, err error) {
	vals := collect(xs, valid)
	if len(vals) == 0 {
		return 0, 0, ErrNoData
	}
	sort.Float64s(vals)
	n := float64(len(vals))
	for i, x := range vals {
		f := cdf(x)
		if up := float64(i+1)/n - f; up > d {
			d = up
		}
		if down := f - float64(i)/n; down > d {
			d = down
		}
	}
	return d, ksPValue(d, len(vals)), nil
}

// ksPValue evaluates the asymptotic Kolmogorov distribution Q(lambda)
// with the standard small-sample correction (Numerical Recipes probks).
func ksPValue(d float64, n int) float64 {
	en := math.Sqrt(float64(n))
	lambda := (en + 0.12 + 0.11/en) * d
	sum := 0.0
	sign := 1.0
	term := 2 * lambda * lambda
	for j := 1; j <= 100; j++ {
		t := sign * 2 * math.Exp(-term*float64(j*j))
		sum += t
		if math.Abs(t) < 1e-12*math.Abs(sum) || math.Abs(t) < 1e-16 {
			break
		}
		sign = -sign
	}
	if sum < 0 {
		return 0
	}
	if sum > 1 {
		return 1
	}
	return sum
}

// NormalCDF is the standard normal CDF shifted to (mu, sigma), for use
// with KolmogorovSmirnov.
//
//lint:allow test-only hypothesis CDF for KolmogorovSmirnov
func NormalCDF(mu, sigma float64) func(float64) float64 {
	return func(x float64) float64 {
		return 0.5 * math.Erfc(-(x-mu)/(sigma*math.Sqrt2))
	}
}

// UniformCDF is the uniform CDF on [a, b].
//
//lint:allow test-only hypothesis CDF for KolmogorovSmirnov
func UniformCDF(a, b float64) func(float64) float64 {
	return func(x float64) float64 {
		switch {
		case x <= a:
			return 0
		case x >= b:
			return 1
		default:
			return (x - a) / (b - a)
		}
	}
}

// StringFrequencies tabulates a string column's distinct values and
// counts in descending count order (ties alphabetical) — the categorical
// analogue of Frequencies.
func StringFrequencies(ss []string, valid []bool) (values []string, counts []int) {
	m := map[string]int{}
	for i, s := range ss {
		if valid != nil && !valid[i] {
			continue
		}
		m[s]++
	}
	values = make([]string, 0, len(m))
	for s := range m {
		values = append(values, s)
	}
	sort.Slice(values, func(a, b int) bool {
		if m[values[a]] != m[values[b]] {
			return m[values[a]] > m[values[b]]
		}
		return values[a] < values[b]
	})
	counts = make([]int, len(values))
	for i, s := range values {
		counts[i] = m[s]
	}
	return values, counts
}
