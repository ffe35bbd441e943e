// Package abstract implements a Database Abstract in the style of Rowe
// [ROWE81], the related-work baseline of Section 5.1: a small store of
// precomputed statistical values plus inference rules that derive
// *estimates* for other functions from what is stored, without touching
// the data. Where the paper's Summary Database returns exact answers
// (computing on a miss), the Abstract answers everything instantly but
// with bounded error — experiment E10 measures the trade.
package abstract

import (
	"fmt"
	"math"

	"statdb/internal/stats"
)

// Estimate is an inferred value with a crude error bound and the rule
// that produced it.
type Estimate struct {
	Value float64
	// Exact marks values read directly from the store.
	Exact bool
	// Bound is a half-width error bound where a rule can provide one
	// (0 for exact values, +Inf when unknown).
	Bound float64
	// Rule names the inference that produced the estimate.
	Rule string
}

// Abstract holds the precomputed values for one attribute and infers the
// rest. The stored set mirrors what a Database Abstract would keep per
// column: n, min, max, mean, sd, and a coarse histogram.
type Abstract struct {
	n    int
	min  float64
	max  float64
	mean float64
	sd   float64
	hist *stats.Histogram
}

// Build precomputes the abstract for one column (this is the only time
// the data is read).
func Build(xs []float64, valid []bool, histBins int) (*Abstract, error) {
	s, err := stats.Summarize(xs, valid)
	if err != nil {
		return nil, err
	}
	h, err := stats.NewHistogram(xs, valid, histBins)
	if err != nil {
		return nil, err
	}
	sd := s.SD
	if math.IsNaN(sd) {
		sd = 0
	}
	return &Abstract{n: s.N, min: s.Min, max: s.Max, mean: s.Mean, sd: sd, hist: h}, nil
}

// Estimate answers fn from the stored values and inference rules.
// Unknown functions return an error (a real Abstract would fall back to
// the DBMS).
func (a *Abstract) Estimate(fn string) (Estimate, error) {
	switch fn {
	case "count":
		return Estimate{Value: float64(a.n), Exact: true, Rule: "stored"}, nil
	case "min":
		return Estimate{Value: a.min, Exact: true, Rule: "stored"}, nil
	case "max":
		return Estimate{Value: a.max, Exact: true, Rule: "stored"}, nil
	case "mean":
		return Estimate{Value: a.mean, Exact: true, Rule: "stored"}, nil
	case "sd":
		return Estimate{Value: a.sd, Exact: true, Rule: "stored"}, nil
	case "range":
		return Estimate{Value: a.max - a.min, Exact: true, Rule: "max - min"}, nil
	case "sum":
		return Estimate{Value: a.mean * float64(a.n), Exact: true, Rule: "mean * n"}, nil
	case "variance":
		return Estimate{Value: a.sd * a.sd, Exact: true, Rule: "sd^2"}, nil
	case "median":
		v, bound := a.quantileFromHistogram(0.5)
		return Estimate{Value: v, Bound: bound, Rule: "histogram interpolation"}, nil
	case "q1":
		v, bound := a.quantileFromHistogram(0.25)
		return Estimate{Value: v, Bound: bound, Rule: "histogram interpolation"}, nil
	case "q3":
		v, bound := a.quantileFromHistogram(0.75)
		return Estimate{Value: v, Bound: bound, Rule: "histogram interpolation"}, nil
	case "mode":
		v, bound := a.modeFromHistogram()
		return Estimate{Value: v, Bound: bound, Rule: "densest histogram bin midpoint"}, nil
	}
	return Estimate{}, fmt.Errorf("abstract: no inference rule for %q", fn)
}

// quantileFromHistogram interpolates the p-quantile within the histogram
// bin containing it; the error bound is half the bin width.
func (a *Abstract) quantileFromHistogram(p float64) (float64, float64) {
	target := p * float64(a.hist.Total())
	cum := 0.0
	for i, c := range a.hist.Counts {
		next := cum + float64(c)
		if next >= target && c > 0 {
			lo, hi := a.hist.Edges[i], a.hist.Edges[i+1]
			frac := 0.0
			if c > 0 {
				frac = (target - cum) / float64(c)
			}
			return lo + frac*(hi-lo), (hi - lo) / 2
		}
		cum = next
	}
	return a.max, 0
}

// modeFromHistogram returns the midpoint of the densest bin.
func (a *Abstract) modeFromHistogram() (float64, float64) {
	best, bestC := 0, -1
	for i, c := range a.hist.Counts {
		if c > bestC {
			best, bestC = i, c
		}
	}
	lo, hi := a.hist.Edges[best], a.hist.Edges[best+1]
	return (lo + hi) / 2, (hi - lo) / 2
}

// EstimateCountInRange estimates how many observations fall in [lo, hi]
// by interpolating within histogram bins — the selectivity-style
// inference a Database Abstract uses to answer range queries without
// touching the data. The bound is the mass of the two partially-covered
// edge bins.
//
//lint:allow test-only leaf inference of the Rowe-style abstract (§5.1 baseline): range selectivity from the stored histogram
func (a *Abstract) EstimateCountInRange(lo, hi float64) (Estimate, error) {
	if lo > hi {
		return Estimate{}, fmt.Errorf("abstract: range [%g, %g] inverted", lo, hi)
	}
	var est, bound float64
	for i, c := range a.hist.Counts {
		bLo, bHi := a.hist.Edges[i], a.hist.Edges[i+1]
		if bHi < lo || bLo > hi {
			continue
		}
		overlapLo := math.Max(bLo, lo)
		overlapHi := math.Min(bHi, hi)
		width := bHi - bLo
		if width <= 0 {
			continue
		}
		frac := (overlapHi - overlapLo) / width
		est += frac * float64(c)
		if frac < 1 {
			bound += float64(c) // a partially-covered bin is all uncertainty
		}
	}
	return Estimate{Value: est, Bound: bound, Rule: "histogram mass interpolation"}, nil
}
