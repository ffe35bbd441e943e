package stats

import (
	"fmt"
	"math"

	"statdb/internal/exec"
)

// This file is the chunked/parallel face of the package: the same
// operators as desc.go, computed by folding fixed-size chunks through an
// exec.Pool and merging partial states in chunk order. Order-insensitive
// results (count, min, max, mode, unique, quantiles) are bit-identical
// to the serial operators; mean and standard deviation are deterministic
// for any worker count but may differ from the serial two-pass formulas
// in the last units of precision, since the parallel form groups the
// sums differently.

// serialEnough reports whether the column is too small (or the pool too
// narrow) for fan-out to pay; callers then take the exact serial path.
func serialEnough(p *exec.Pool, n, chunk int) bool {
	return p == nil || p.Workers() <= 1 || len(exec.Chunks(n, chunk)) <= 1
}

// SummarizeChunks computes the same Summary as Summarize by partitioned
// fold-and-merge: moments and extrema via Welford partials with the
// Chan–Golub–LeVeque merge, and the order statistics (median,
// quartiles, mode, unique count) read off a merged frequency table —
// a frequency table is a compressed sort, so the quantile arithmetic of
// quantileSorted applies to it exactly. With one worker or a single
// chunk it falls back to Summarize itself.
func SummarizeChunks(p *exec.Pool, xs []float64, valid []bool, chunk int) (Summary, error) {
	if serialEnough(p, len(xs), chunk) {
		return Summarize(xs, valid)
	}
	m := exec.ColumnMoments(p, xs, valid, chunk)
	if m.N == 0 {
		return Summary{}, ErrNoData
	}
	s := Summary{N: int(m.N), Missing: int(m.Missing), Min: m.Min, Max: m.Max}
	s.Mean, _ = m.MeanValue() //lint:allow error-flow m.N > 0 was checked above
	if sd, err := m.SD(); err == nil {
		s.SD = sd
	} else {
		s.SD = math.NaN()
	}
	_, t := exec.ColumnFold(p, xs, valid, chunk, false, true)
	s.Median = quantileFreq(t.Values, t.Counts, m.N, 0.5)
	s.Q1 = quantileFreq(t.Values, t.Counts, m.N, 0.25)
	s.Q3 = quantileFreq(t.Values, t.Counts, m.N, 0.75)
	s.Mode = modeFreq(t.Values, t.Counts)
	s.Unique = len(t.Values)
	return s, nil
}

// QuantileChunks is Quantile from a merged frequency table: cumulative
// counts locate the two order statistics quantileSorted would
// interpolate between, and the interpolation arithmetic is identical,
// so the result matches the serial operator bit for bit.
func QuantileChunks(p *exec.Pool, xs []float64, valid []bool, chunk int, q float64) (float64, error) {
	if serialEnough(p, len(xs), chunk) {
		return Quantile(xs, valid, q)
	}
	_, t := exec.ColumnFold(p, xs, valid, chunk, false, true)
	return QuantileFreq(t.Values, t.Counts, q)
}

// QuantileFreq is Quantile over a sorted frequency table (distinct values
// ascending with their multiplicities) — the finalizer every
// frequency-state caller shares, bit-identical to the serial operator
// over the expanded observations.
func QuantileFreq(values []float64, counts []int64, q float64) (float64, error) {
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile p=%g out of [0,1]", q)
	}
	var n int64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return 0, ErrNoData
	}
	return quantileFreq(values, counts, n, q), nil
}

// ModeFreq is Mode over a sorted frequency table, including its
// ties-toward-smaller rule.
func ModeFreq(values []float64, counts []int64) (float64, error) {
	if len(values) == 0 {
		return 0, ErrNoData
	}
	return modeFreq(values, counts), nil
}

// quantileFreq evaluates the type-7 p-quantile over a sorted frequency
// table of n observations — quantileSorted's formula with the order
// statistics looked up through cumulative counts instead of a sorted
// slice.
func quantileFreq(values []float64, counts []int64, n int64, p float64) float64 {
	if n == 1 {
		return values[0]
	}
	h := p * float64(n-1)
	lo := int64(h)
	if lo >= n-1 {
		return orderStatFreq(values, counts, n-1)
	}
	frac := h - float64(lo)
	a := orderStatFreq(values, counts, lo)
	b := orderStatFreq(values, counts, lo+1)
	return a + frac*(b-a)
}

// orderStatFreq returns the value at 0-based sorted index k.
func orderStatFreq(values []float64, counts []int64, k int64) float64 {
	var cum int64
	for i, c := range counts {
		cum += c
		if k < cum {
			return values[i]
		}
	}
	return values[len(values)-1]
}

// modeFreq returns the most frequent value, ties toward the smaller —
// the same rule as Mode's ascending scan.
func modeFreq(values []float64, counts []int64) float64 {
	best, bestN := values[0], counts[0]
	for i := 1; i < len(values); i++ {
		if counts[i] > bestN {
			best, bestN = values[i], counts[i]
		}
	}
	return best
}
