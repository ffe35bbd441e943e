// Package stats implements the statistical operations the paper's
// Section 2.1–2.2 enumerates: simple summary statistics (min, max, mean,
// median, mode, standard deviation, quantiles), histograms and frequency
// counts, cross tabulations with chi-squared tests, correlation, simple
// linear regression with residuals, and random sampling.
//
// All operators take a value vector plus a validity mask and skip missing
// values, matching how the packages the paper surveys treat "invalid"
// observations.
package stats

import (
	"cmp"
	"fmt"
	"math"
	"sort"
)

// ErrNoData reports an operation over zero valid observations.
var ErrNoData = fmt.Errorf("stats: no valid observations")

// collect returns the valid values of xs. valid may be nil, meaning all
// values are present.
func collect(xs []float64, valid []bool) []float64 {
	if valid == nil {
		return append([]float64(nil), xs...)
	}
	out := make([]float64, 0, len(xs))
	for i, x := range xs {
		if valid[i] {
			out = append(out, x)
		}
	}
	return out
}

// Count returns the number of valid observations.
func Count(xs []float64, valid []bool) int {
	if valid == nil {
		return len(xs)
	}
	n := 0
	for _, ok := range valid {
		if ok {
			n++
		}
	}
	return n
}

// Sum returns the sum of valid observations (0 for none).
func Sum(xs []float64, valid []bool) float64 {
	s := 0.0
	for i, x := range xs {
		if valid == nil || valid[i] {
			s += x
		}
	}
	return s
}

// Mean returns the arithmetic mean of valid observations.
func Mean(xs []float64, valid []bool) (float64, error) {
	n := Count(xs, valid)
	if n == 0 {
		return 0, ErrNoData
	}
	return Sum(xs, valid) / float64(n), nil
}

// Variance returns the sample variance (divisor n-1) of valid
// observations. It needs at least two observations.
func Variance(xs []float64, valid []bool) (float64, error) {
	n := Count(xs, valid)
	if n < 2 {
		return 0, fmt.Errorf("stats: variance needs >= 2 observations, have %d", n)
	}
	m, _ := Mean(xs, valid) //lint:allow error-flow n >= 2 was checked above
	ss := 0.0
	for i, x := range xs {
		if valid == nil || valid[i] {
			d := x - m
			ss += d * d
		}
	}
	return ss / float64(n-1), nil
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64, valid []bool) (float64, error) {
	v, err := Variance(xs, valid)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Min returns the smallest valid observation.
func Min(xs []float64, valid []bool) (float64, error) {
	first := true
	m := 0.0
	for i, x := range xs {
		if valid != nil && !valid[i] {
			continue
		}
		if first || x < m {
			m = x
			first = false
		}
	}
	if first {
		return 0, ErrNoData
	}
	return m, nil
}

// Max returns the largest valid observation.
func Max(xs []float64, valid []bool) (float64, error) {
	first := true
	m := 0.0
	for i, x := range xs {
		if valid != nil && !valid[i] {
			continue
		}
		if first || x > m {
			m = x
			first = false
		}
	}
	if first {
		return 0, ErrNoData
	}
	return m, nil
}

// Mode returns the most frequent valid observation and its count; ties
// break toward the smaller value so the result is deterministic.
func Mode(xs []float64, valid []bool) (float64, int, error) {
	vals := collect(xs, valid)
	if len(vals) == 0 {
		return 0, 0, ErrNoData
	}
	sort.Float64s(vals)
	best, bestN := vals[0], 1
	cur, curN := vals[0], 1
	for _, x := range vals[1:] {
		if x == cur {
			curN++
		} else {
			cur, curN = x, 1
		}
		if curN > bestN {
			best, bestN = cur, curN
		}
	}
	return best, bestN, nil
}

// UniqueCount returns the number of distinct valid observations — one of
// the standing summary values the paper stores in the Summary Database.
func UniqueCount(xs []float64, valid []bool) int {
	vals := collect(xs, valid)
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	n := 1
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[i-1] {
			n++
		}
	}
	return n
}

// Frequencies returns the distinct valid observations in ascending order
// with their counts — the "measure of frequency of values" of Section 3.2.
// A NaN (which sorts first) is one value: runs are delimited by
// cmp.Compare, under which it equals itself.
func Frequencies(xs []float64, valid []bool) (values []float64, counts []int) {
	vals := collect(xs, valid)
	sort.Float64s(vals)
	for i := 0; i < len(vals); {
		j := i
		for j < len(vals) && cmp.Compare(vals[j], vals[i]) == 0 {
			j++
		}
		values = append(values, vals[i])
		counts = append(counts, j-i)
		i = j
	}
	return values, counts
}

// Summary bundles the descriptive statistics the Summary Database keeps
// per attribute (Section 3.2): mode, mean, median, quartiles, min & max,
// unique-value count, and the observation counts.
type Summary struct {
	N       int // valid observations
	Missing int // invalid (missing) observations
	Mean    float64
	SD      float64 // NaN when N < 2
	Min     float64
	Max     float64
	Median  float64
	Q1, Q3  float64
	Mode    float64
	Unique  int
}

// Summarize computes a Summary in one pass over the sorted valid values.
func Summarize(xs []float64, valid []bool) (Summary, error) {
	vals := collect(xs, valid)
	if len(vals) == 0 {
		return Summary{}, ErrNoData
	}
	s := Summary{N: len(vals), Missing: len(xs) - len(vals)}
	s.Mean, _ = Mean(xs, valid) //lint:allow error-flow vals is non-empty, checked above
	if sd, err := StdDev(xs, valid); err == nil {
		s.SD = sd
	} else {
		s.SD = math.NaN()
	}
	sort.Float64s(vals)
	s.Min, s.Max = vals[0], vals[len(vals)-1]
	s.Median = quantileSorted(vals, 0.5)
	s.Q1 = quantileSorted(vals, 0.25)
	s.Q3 = quantileSorted(vals, 0.75)
	s.Mode, _, _ = Mode(xs, valid) //lint:allow error-flow vals is non-empty, checked above
	s.Unique = UniqueCount(xs, valid)
	return s, nil
}
