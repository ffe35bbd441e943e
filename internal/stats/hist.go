package stats

import (
	"fmt"
)

// Histogram is a binned frequency table: Counts[i] counts observations in
// [Edges[i], Edges[i+1]), with the final bin closed on the right. The
// Summary Database stores histograms "as two vectors (one for specifying
// the ranges and the other for the number of values that fall in each
// range)" (Section 3.2) — exactly Edges and Counts.
type Histogram struct {
	Edges  []float64 // len = bins+1, ascending
	Counts []int     // len = bins
}

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.Counts) }

// Total returns the number of binned observations.
func (h *Histogram) Total() int {
	n := 0
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Bin returns the bin index for x, or -1 when x is outside the range:
// the rightmost of Edges[0..Bins()-1] that is <= x, counting Edges[0]
// once x passed the range check. Bin first guesses the bin by arithmetic,
// as if the edges were evenly spaced, and then corrects the guess by at
// most one step against Edges; a guess still wrong after that, which
// ascending but uneven edges can give, is settled by binary search. The
// answer is the binary search's, bit for bit, for every histogram
// NewHistogram builds (restored ones included) and every other whose
// edges ascend.
func (h *Histogram) Bin(x float64) int {
	n := len(h.Edges) - 1
	if n < 1 || x < h.Edges[0] || x > h.Edges[n] {
		return -1
	}
	// A NaN guess (a NaN edge or x) or a negative one lands on bin 0.
	g := 0
	if f := (x - h.Edges[0]) / (h.Edges[n] - h.Edges[0]) * float64(n); f >= float64(n) {
		g = n - 1
	} else if f > 0 {
		g = int(f)
	}
	if g > 0 && !(h.Edges[g] <= x) {
		g--
	} else if g+1 < n && h.Edges[g+1] <= x {
		g++
	}
	if (g > 0 && !(h.Edges[g] <= x)) || (g+1 < n && h.Edges[g+1] <= x) {
		g = h.search(x)
	}
	if g == len(h.Counts) { // x == last edge: closed right bin
		g--
	}
	return g
}

// search is Bin's binary search for the rightmost edge <= x.
func (h *Histogram) search(x float64) int {
	lo, hi := 0, len(h.Edges)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if h.Edges[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Add counts one observation; out-of-range observations report false.
func (h *Histogram) Add(x float64) bool {
	b := h.Bin(x)
	if b < 0 {
		return false
	}
	h.Counts[b]++
	return true
}

// NewHistogram bins the valid observations of xs into bins equal-width
// bins spanning [min, max].
func NewHistogram(xs []float64, valid []bool, bins int) (*Histogram, error) {
	if bins < 1 {
		return nil, fmt.Errorf("stats: histogram needs >= 1 bin, got %d", bins)
	}
	lo, hi, err := Extremes(xs, valid)
	if err != nil {
		return nil, err
	}
	if lo == hi {
		hi = lo + 1 // degenerate range: one unit-wide bin
	}
	h := &Histogram{Edges: make([]float64, bins+1), Counts: make([]int, bins)}
	width := (hi - lo) / float64(bins)
	for i := 0; i <= bins; i++ {
		h.Edges[i] = lo + width*float64(i)
	}
	h.Edges[bins] = hi // avoid rounding drift at the top edge
	for i, x := range xs {
		if valid != nil && !valid[i] {
			continue
		}
		h.Add(x)
	}
	return h, nil
}

// RangeCheck is the data-checking primitive of Section 2.2: it returns
// the indices of valid observations outside [lo, hi] — the suspicious
// values an analyst must investigate and perhaps invalidate.
func RangeCheck(xs []float64, valid []bool, lo, hi float64) []int {
	var out []int
	for i, x := range xs {
		if valid != nil && !valid[i] {
			continue
		}
		if x < lo || x > hi {
			out = append(out, i)
		}
	}
	return out
}

// OutsideKSigmaWith returns the indices of valid observations outside
// mean ± k·sd, given the mean and sd — the Section 3.1 example of a later
// query reusing the cached mean and standard deviation.
func OutsideKSigmaWith(xs []float64, valid []bool, mean, sd, k float64) []int {
	return RangeCheck(xs, valid, mean-k*sd, mean+k*sd)
}
