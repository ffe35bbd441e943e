package stats

import (
	"fmt"
	"sort"
)

// quantileSorted computes the p-quantile of sorted values using linear
// interpolation between order statistics (type-7, the R default).
func quantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := p * float64(n-1)
	lo := int(h)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// Quantile returns the p-quantile (0 <= p <= 1) of the valid observations.
func Quantile(xs []float64, valid []bool, p float64) (float64, error) {
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("stats: quantile p=%g out of [0,1]", p)
	}
	vals := collect(xs, valid)
	if len(vals) == 0 {
		return 0, ErrNoData
	}
	sort.Float64s(vals)
	return quantileSorted(vals, p), nil
}

// Quantiles returns the quantiles at each of ps with a single sort.
//
//lint:allow test-only leaf statistical operator: several quantiles from one sort
func Quantiles(xs []float64, valid []bool, ps []float64) ([]float64, error) {
	vals := collect(xs, valid)
	if len(vals) == 0 {
		return nil, ErrNoData
	}
	sort.Float64s(vals)
	out := make([]float64, len(ps))
	for i, p := range ps {
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("stats: quantile p=%g out of [0,1]", p)
		}
		out[i] = quantileSorted(vals, p)
	}
	return out, nil
}

// Median returns the 0.5 quantile.
func Median(xs []float64, valid []bool) (float64, error) {
	return Quantile(xs, valid, 0.5)
}

// OrderStatistic returns the k-th smallest valid observation (1-based),
// e.g. k=10 is "the 10th largest value" counted from below. It uses
// quickselect, so it is O(n) expected rather than a full sort.
//
//lint:allow test-only paper-named: "the 10th largest value" order statistic (§3.1)
func OrderStatistic(xs []float64, valid []bool, k int) (float64, error) {
	vals := collect(xs, valid)
	if len(vals) == 0 {
		return 0, ErrNoData
	}
	if k < 1 || k > len(vals) {
		return 0, fmt.Errorf("stats: order statistic %d out of [1,%d]", k, len(vals))
	}
	return quickselect(vals, k-1), nil
}

// quickselect returns the element that would be at index k of the sorted
// slice, partially reordering vals in place (callers pass a copy).
func quickselect(vals []float64, k int) float64 {
	lo, hi := 0, len(vals)-1
	for lo < hi {
		// Median-of-three pivot keeps sorted inputs from degrading.
		mid := lo + (hi-lo)/2
		if vals[mid] < vals[lo] {
			vals[mid], vals[lo] = vals[lo], vals[mid]
		}
		if vals[hi] < vals[lo] {
			vals[hi], vals[lo] = vals[lo], vals[hi]
		}
		if vals[hi] < vals[mid] {
			vals[hi], vals[mid] = vals[mid], vals[hi]
		}
		pivot := vals[mid]
		i, j := lo, hi
		for i <= j {
			for vals[i] < pivot {
				i++
			}
			for vals[j] > pivot {
				j--
			}
			if i <= j {
				vals[i], vals[j] = vals[j], vals[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return vals[k]
}

// TrimmedMean returns the mean of the valid observations between the lo
// and hi quantiles inclusive — e.g. TrimmedMean(xs, valid, 0.05, 0.95) is
// the paper's "trimmed mean bounded by the 5th and 95th quantile values"
// (Section 3.1).
//
//lint:allow test-only paper-named: the trimmed mean of §3.1
func TrimmedMean(xs []float64, valid []bool, lo, hi float64) (float64, error) {
	if lo < 0 || hi > 1 || lo >= hi {
		return 0, fmt.Errorf("stats: trimmed mean bounds [%g,%g] invalid", lo, hi)
	}
	vals := collect(xs, valid)
	if len(vals) == 0 {
		return 0, ErrNoData
	}
	sort.Float64s(vals)
	qlo := quantileSorted(vals, lo)
	qhi := quantileSorted(vals, hi)
	sum, n := 0.0, 0
	for _, x := range vals {
		if x >= qlo && x <= qhi {
			sum += x
			n++
		}
	}
	if n == 0 {
		return 0, ErrNoData
	}
	return sum / float64(n), nil
}
