package summary

import (
	"fmt"
	"math"
	"strings"

	"statdb/internal/exec"
	"statdb/internal/stats"
)

// State is the mergeable partial state a built-in finalizes, in one of
// two families: Moments for the aggregates Koenig–Paige can difference,
// Freq (a frequency table is a compressed sort) for the order
// statistics. Which field a function reads is fixed by its table row.
type State struct {
	Moments exec.Moments
	Freq    exec.FreqTable
}

// aggregate is one built-in scalar function, declared once: every input
// form — row slice, pool, run column, gathered per-shard partials, the
// database machine's processor array, update deltas — folds into the
// row's state family and calls the same finalizer.
type aggregate struct {
	name string
	// Exactly one finalizer is set, and it names the state family: moments
	// over exec.Moments, freq over the frequency table.
	moments func(m exec.Moments) (float64, error)
	freq    func(t exec.FreqTable) (float64, error)
	// A fill finalizes from the attribute's kept state of the row's family
	// (DB.moments, DB.tables) whenever one is kept. Each family has its
	// delta form too: a moments row re-finalizes from the kept moments
	// after an update, and a freq row is either windowed — a quantile (p)
	// that a medwin.Window slides — or tabled: re-finalized from the
	// attribute's maintained frequency table.
	windowed bool
	quantile float64
}

// tabled reports whether the row's delta form is the kept table.
func (a *aggregate) tabled() bool { return a.freq != nil && !a.windowed }

// aggregates is the table, in the order help text and error messages
// list it. A thirteenth built-in is one more row.
var aggregates = []aggregate{
	{
		name:    "count",
		moments: func(m exec.Moments) (float64, error) { return float64(m.N), nil },
	},
	{
		name:    "sum",
		moments: func(m exec.Moments) (float64, error) { return m.Sum, nil },
	},
	{
		// Sum/N is the serial formula, so the mean is bit-identical to
		// stats.Mean whenever the sum is (integer-coded data, always).
		name:    "mean",
		moments: func(m exec.Moments) (float64, error) { return observed(m, m.Sum/float64(m.N)) },
	},
	{
		name:    "variance",
		moments: sampleVariance,
	},
	{
		name: "sd",
		moments: func(m exec.Moments) (float64, error) {
			v, err := sampleVariance(m)
			return math.Sqrt(v), err
		},
	},
	{
		name:    "min",
		moments: func(m exec.Moments) (float64, error) { return observed(m, m.Min) },
	},
	{
		name:    "max",
		moments: func(m exec.Moments) (float64, error) { return observed(m, m.Max) },
	},
	quantileRow("median", 0.5),
	quantileRow("q1", 0.25),
	quantileRow("q3", 0.75),
	{
		name: "mode",
		freq: func(t exec.FreqTable) (float64, error) { return stats.ModeFreq(t.Values, t.Counts) },
	},
	{
		name: "unique",
		freq: func(t exec.FreqTable) (float64, error) { return float64(len(t.Values)), nil },
	},
}

// quantileRow declares the p-quantile under name: type-7 interpolation
// over the sorted observations, maintained by a sliding window.
func quantileRow(name string, p float64) aggregate {
	return aggregate{
		name:     name,
		freq:     func(t exec.FreqTable) (float64, error) { return stats.QuantileFreq(t.Values, t.Counts, p) },
		windowed: true,
		quantile: p,
	}
}

// observed returns v unless m holds no observation — the serial
// operators' ErrNoData contract.
func observed(m exec.Moments, v float64) (float64, error) {
	if m.N == 0 {
		return 0, stats.ErrNoData
	}
	return v, nil
}

// sampleVariance is M2/(n-1) with stats.Variance's error text, so a
// one-observation column fails the same way through every input form.
func sampleVariance(m exec.Moments) (float64, error) {
	if m.N < 2 {
		return 0, fmt.Errorf("stats: variance needs >= 2 observations, have %d", m.N)
	}
	return m.Variance()
}

var aggregateByName = func() map[string]*aggregate {
	idx := make(map[string]*aggregate, len(aggregates))
	for i := range aggregates {
		idx[aggregates[i].name] = &aggregates[i]
	}
	return idx
}()

// Functions lists the built-in scalar functions in table order.
func Functions() []string {
	names := make([]string, len(aggregates))
	for i, a := range aggregates {
		names[i] = a.name
	}
	return names
}

// lookup resolves fn to its table row; the error names what exists.
func lookup(fn string) (*aggregate, error) {
	if a, ok := aggregateByName[fn]; ok {
		return a, nil
	}
	return nil, fmt.Errorf("summary: unknown function %q (built-ins: %s)", fn, strings.Join(Functions(), " "))
}

// finalize turns the row's state family into the scalar.
func (a *aggregate) finalize(st State) (float64, error) {
	if a.moments != nil {
		return a.moments(st.Moments)
	}
	return a.freq(st.Freq)
}

// Finalize evaluates built-in fn over an already merged state — the
// entry point for callers that fold and merge partials themselves (the
// database machine's processor array).
func Finalize(fn string, st State) (float64, error) {
	a, err := lookup(fn)
	if err != nil {
		return 0, err
	}
	return a.finalize(st)
}
