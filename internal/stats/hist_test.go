package stats

import (
	"math"
	"slices"
	"testing"
)

// searchBin is the reference Bin: a binary search for the rightmost edge
// <= x, as Bin was before it guessed by arithmetic.
func searchBin(h *Histogram, x float64) int {
	if len(h.Edges) < 2 || x < h.Edges[0] || x > h.Edges[len(h.Edges)-1] {
		return -1
	}
	lo, hi := 0, len(h.Edges)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if h.Edges[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo == len(h.Counts) {
		lo--
	}
	return lo
}

// checkBins holds h.Bin to searchBin at x and at every edge and its
// neighbours.
func checkBins(t *testing.T, h *Histogram, x float64) {
	t.Helper()
	probes := []float64{x, math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	for _, e := range h.Edges {
		probes = append(probes, e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)))
	}
	for _, p := range probes {
		if got, want := h.Bin(p), searchBin(h, p); got != want {
			t.Fatalf("edges %v: Bin(%v) = %d, binary search %d", h.Edges, p, got, want)
		}
	}
}

// FuzzHistogramBin: Bin equals the binary search on every histogram
// NewHistogram builds — NaN and ±Inf observations, ±0, equal edges from
// subnormal widths, a hi−lo that overflows, one bin — and on uneven
// ascending edges.
func FuzzHistogramBin(f *testing.F) {
	f.Add(0.0, 1.0, 0.5, uint8(20))
	f.Add(-3.0, 7.0, 7.0, uint8(19))
	f.Add(math.NaN(), 1.0, 0.5, uint8(20))
	f.Add(1.0, math.NaN(), 0.5, uint8(20))
	f.Add(math.Copysign(0, -1), 0.0, 0.0, uint8(4))
	f.Add(math.Inf(-1), 1.0, 0.0, uint8(20))
	f.Add(0.0, math.Inf(1), math.Inf(1), uint8(20))
	f.Add(-math.MaxFloat64, math.MaxFloat64, 1.0, uint8(20))
	f.Add(2.0, 2.0, 2.5, uint8(0))
	f.Add(1.0, math.Nextafter(1, 2), 1.0, uint8(20))
	f.Add(0.0, 3*math.SmallestNonzeroFloat64, 5e-324, uint8(20))
	f.Fuzz(func(t *testing.T, a, b, x float64, bins uint8) {
		nb := int(bins)%64 + 1
		xs := []float64{a, b, x}
		h, err := NewHistogram(xs, nil, nb)
		if err != nil {
			t.Fatal(err)
		}
		checkBins(t, h, x)
		want := make([]int, nb)
		for _, v := range xs {
			if k := searchBin(h, v); k >= 0 {
				want[k]++
			}
		}
		if !slices.Equal(h.Counts, want) {
			t.Fatalf("edges %v: counts %v, binary search %v", h.Edges, h.Counts, want)
		}
		// Uneven ascending edges, where the guess is often wrong.
		if !slices.ContainsFunc(xs, math.IsNaN) {
			edges := slices.Clone(xs)
			slices.Sort(edges)
			edges = append(edges, edges[2]+1)
			checkBins(t, &Histogram{Edges: edges, Counts: make([]int, len(edges)-1)}, (a+b)/2)
		}
	})
}
