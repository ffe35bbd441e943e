package summary

import (
	"fmt"
	"math"
	"strings"

	"statdb/internal/exec"
	"statdb/internal/incr"
	"statdb/internal/stats"
)

// State is the mergeable partial state a built-in finalizes: Moments for
// the aggregates Koenig–Paige can difference, Freq (a frequency table is a
// compressed sort) for the order statistics. Which field a function reads
// is fixed by the state its table row names.
type State struct {
	Moments exec.Moments
	Freq    exec.FreqTable
}

// stateKind names a row of the state table.
type stateKind uint8

const (
	momentsState stateKind = iota
	freqState
)

// stateRow is one kind of state the Summary Database keeps per attribute,
// declared once: what a read folds for it, how it is kept, and how an
// update batch applies to it. A kept state is held as its kept form (the
// any the row's functions take), behind the one record every state shares
// (kept, db.go). A new state is one row here plus the aggregate rows that
// finalize from it.
type stateRow struct {
	// moments and freq are the fold kernels' flags that fold this state
	// (exec.ColumnFold, the run kernels, a GatherSource).
	moments, freq bool
	// keep makes the kept form of what one read folded; count counts the
	// moments' extremes' copies over the read's column or runs.
	keep func(st State, count func(exec.Moments) exec.KeptMoments) any
	// state is the kept form as the finalizers read it.
	state func(k any) State
	// apply merges a delta batch into the kept form in place. False means
	// the kept form no longer describes the column.
	apply func(k any, deltas []incr.Delta) bool
	// bytes is the kept form's size, counted against the budget while cold.
	bytes func(k any) int64
	// maintained: every read keeps the state, maintained from the start.
	// Otherwise a read keeps it cold, inside coldTableBudget, while a row
	// not yet cached would fill from it; an update while a cached row
	// reads it makes it maintained.
	maintained bool
}

// states is the state table. The kept moments cost under 100 B, so every
// read keeps them; a table costs 16 B a distinct value, so it is kept only
// while it earns that.
var states = [...]stateRow{
	momentsState: {
		moments:    true,
		keep:       func(st State, count func(exec.Moments) exec.KeptMoments) any { return ptr(count(st.Moments)) },
		state:      func(k any) State { return State{Moments: k.(*exec.KeptMoments).Moments} },
		apply:      func(k any, deltas []incr.Delta) bool { return k.(*exec.KeptMoments).Apply(deltas) },
		bytes:      func(any) int64 { return 9 * 8 }, // seven words of moments, two copy counts
		maintained: true,
	},
	freqState: {
		freq:  true,
		keep:  func(st State, _ func(exec.Moments) exec.KeptMoments) any { return ptr(st.Freq) },
		state: func(k any) State { return State{Freq: *k.(*exec.FreqTable)} },
		apply: func(k any, deltas []incr.Delta) bool { return k.(*exec.FreqTable).Apply(changes(deltas)) },
		bytes: func(k any) int64 { return 16 * int64(len(k.(*exec.FreqTable).Values)) },
	},
}

func ptr[T any](v T) *T { return &v }

// changes restates a delta batch as the signed multiplicity changes the
// frequency table merges.
func changes(deltas []incr.Delta) []exec.Change {
	out := make([]exec.Change, 0, 2*len(deltas))
	for _, d := range deltas {
		if d.Delete {
			out = append(out, exec.Change{Value: d.Old, N: -1})
		}
		if d.Insert {
			out = append(out, exec.Change{Value: d.New, N: 1})
		}
	}
	return out
}

// aggregate is one built-in scalar function, declared once: every input
// form — row slice, pool, run column, gathered per-shard partials, the
// database machine's processor array, update deltas — folds into the
// row's state and calls the same finalizer.
type aggregate struct {
	name  string
	state stateKind
	final func(st State) (float64, error)
	// refuses, when set, reports that a kept state of the row's kind can
	// no longer answer the row — min and max once the kept moments lost
	// their extremum. A fill then reads the column, and an update refolds
	// the state while the row is cached.
	refuses func(k any) bool
	// A fill finalizes from the attribute's kept state of the row's kind
	// whenever one is kept, and so does an update, unless the row is
	// windowed: a quantile (p) that a medwin.Window slides.
	windowed bool
	quantile float64
}

// momentsRow declares name, finalized over the moments by f.
func momentsRow(name string, f func(m exec.Moments) (float64, error)) aggregate {
	return aggregate{name: name, state: momentsState, final: func(st State) (float64, error) { return f(st.Moments) }}
}

// freqRow declares name, finalized over the frequency table by f.
func freqRow(name string, f func(t exec.FreqTable) (float64, error)) aggregate {
	return aggregate{name: name, state: freqState, final: func(st State) (float64, error) { return f(st.Freq) }}
}

// refusing returns a with f as its refusal.
func (a aggregate) refusing(f func(k any) bool) aggregate {
	a.refuses = f
	return a
}

// lostMin and lostMax refuse kept moments that lost the extremum.
func lostMin(k any) bool { lost, _ := k.(*exec.KeptMoments).Lost(); return lost }
func lostMax(k any) bool { _, lost := k.(*exec.KeptMoments).Lost(); return lost }

// quantileRow declares the p-quantile under name: type-7 interpolation
// over the sorted observations, maintained by a sliding window.
func quantileRow(name string, p float64) aggregate {
	a := freqRow(name, func(t exec.FreqTable) (float64, error) { return stats.QuantileFreq(t.Values, t.Counts, p) })
	a.windowed, a.quantile = true, p
	return a
}

// aggregates is the table, in the order help text and error messages
// list it. A thirteenth built-in is one more row.
var aggregates = [...]aggregate{
	momentsRow("count", func(m exec.Moments) (float64, error) { return float64(m.N), nil }),
	momentsRow("sum", func(m exec.Moments) (float64, error) { return m.Sum, nil }),
	// Sum/N is the serial formula, so the mean is bit-identical to
	// stats.Mean whenever the sum is (integer-coded data, always).
	momentsRow("mean", func(m exec.Moments) (float64, error) { return observed(m, m.Sum/float64(m.N)) }),
	momentsRow("variance", sampleVariance),
	momentsRow("sd", func(m exec.Moments) (float64, error) {
		v, err := sampleVariance(m)
		return math.Sqrt(v), err
	}),
	// A zero extremum is answered as +0, as a table holds it, whichever
	// zero the column met first.
	momentsRow("min", func(m exec.Moments) (float64, error) { return observed(m, m.Min+0) }).refusing(lostMin),
	momentsRow("max", func(m exec.Moments) (float64, error) { return observed(m, m.Max+0) }).refusing(lostMax),
	quantileRow("median", 0.5),
	quantileRow("q1", 0.25),
	quantileRow("q3", 0.75),
	freqRow("mode", func(t exec.FreqTable) (float64, error) { return stats.ModeFreq(t.Values, t.Counts) }),
	freqRow("unique", func(t exec.FreqTable) (float64, error) { return float64(len(t.Values)), nil }),
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

// aggregateRow is each built-in's index in aggregates.
var aggregateRow = func() map[string]int {
	idx := make(map[string]int, len(aggregates))
	for i, a := range aggregates {
		idx[a.name] = i
	}
	return idx
}()

// rowSet is a set of rows of the aggregate table, bit i for aggregates[i].
type rowSet uint32

// stateRows is, per state, the rows that finalize from it; windowedRows
// are the rows an update slides a window for instead.
var stateRows, windowedRows = func() (rows [len(states)]rowSet, windowed rowSet) {
	for i, a := range aggregates {
		rows[a.state] |= 1 << i
		if a.windowed {
			windowed |= 1 << i
		}
	}
	return rows, windowed
}()

// answers reports whether a can be finalized from k, a kept state of its
// kind: the fill path and the update path ask this one question.
func (a *aggregate) answers(k any) bool { return a.refuses == nil || !a.refuses(k) }

// refused reports whether a row of rows cannot be finalized from k.
func refused(k any, rows rowSet) bool {
	for i := range aggregates {
		if rows&(1<<i) != 0 && !aggregates[i].answers(k) {
			return true
		}
	}
	return false
}

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
	if i, ok := aggregateRow[fn]; ok {
		return &aggregates[i], nil
	}
	return nil, fmt.Errorf("summary: unknown function %q (built-ins: %s)", fn, strings.Join(Functions(), " "))
}

// Finalize evaluates built-in fn over an already merged state — the
// entry point for callers that fold and merge partials themselves (the
// database machine's processor array).
func Finalize(fn string, st State) (float64, error) {
	a, err := lookup(fn)
	if err != nil {
		return 0, err
	}
	return a.final(st)
}
