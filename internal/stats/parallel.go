package stats

import (
	"fmt"

	"statdb/internal/exec"
)

// This file is the frequency-table face of the package: the order
// statistics read off a sorted frequency table (a compressed sort), which
// the Summary Database's aggregate table finalizes every input form with,
// and QuantileChunks, which folds that table through an exec.Pool. Every
// result is bit-identical to the serial operator over the expanded
// observations.

// serialEnough reports whether the column is too small (or the pool too
// narrow) for fan-out to pay; callers then take the exact serial path.
func serialEnough(p *exec.Pool, n, chunk int) bool {
	return p == nil || p.Workers() <= 1 || len(exec.Chunks(n, chunk)) <= 1
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
