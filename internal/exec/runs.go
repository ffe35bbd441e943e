package exec

import (
	"cmp"
	"fmt"
	"slices"

	"statdb/internal/storage"
)

// Run-native kernels: fold a run-length-encoded column as (value, null,
// count) triples, doing O(runs) work where the row kernels do O(rows).
// Each kernel folds one run into the same partial state its row twin
// uses, so the merge algebra — and therefore the engine's determinism
// contract — is shared: order-insensitive aggregates (count, min, max,
// frequencies) are bit-identical to expand-then-fold;
// sum-based moments regroup float additions (x added c times vs x*c) and
// agree to ulps, exactly as the parallel row path does vs serial.

// ErrCorruptRuns reports a run column whose counts disagree with its
// declared row span — decoded pages that lie about their coverage. It
// wraps storage.ErrCorrupt so errors.Is(err, storage.ErrCorrupt)
// matches, keeping the "corruption is one sentinel" contract.
var ErrCorruptRuns = fmt.Errorf("exec: run counts overflow chunk bounds: %w", storage.ErrCorrupt)

// RunColumn is a run-compressed column: parallel slices of value, null
// flag and repetition count, spanning Rows logical rows. Null runs carry
// an unspecified value. It is what colstore's NumericRunColumn reads:
// a column's coalesced runs widened to float64.
type RunColumn struct {
	Vals   []float64
	Nulls  []bool
	Counts []int64
	Rows   int
}

// Validate checks the column's structural invariants: equal slice
// lengths, positive counts, and counts summing exactly to Rows. A
// violation returns ErrCorruptRuns — every run kernel calls this first,
// so corrupt runs surface as typed errors rather than silently folding
// garbage.
func (rc RunColumn) Validate() error {
	if len(rc.Vals) != len(rc.Nulls) || len(rc.Vals) != len(rc.Counts) {
		return fmt.Errorf("exec: run column slices disagree: %d vals, %d nulls, %d counts: %w",
			len(rc.Vals), len(rc.Nulls), len(rc.Counts), ErrCorruptRuns)
	}
	var total int64
	for _, c := range rc.Counts {
		if c < 1 {
			return fmt.Errorf("exec: run count %d: %w", c, ErrCorruptRuns)
		}
		total += c
		if total > int64(rc.Rows) {
			return fmt.Errorf("exec: runs cover > %d declared rows: %w", rc.Rows, ErrCorruptRuns)
		}
	}
	if total != int64(rc.Rows) {
		return fmt.Errorf("exec: runs cover %d of %d declared rows: %w", total, rc.Rows, ErrCorruptRuns)
	}
	return nil
}

// FoldMomentsRuns folds a run column into a Moments state in O(runs).
// A constant-value run of length c contributes the exact closed-form
// state {N: c, Sum: x*c, Mean: x, M2: 0, Min: x, Max: x}; runs merge in
// order via MergeMoments. Count, Min and Max are bit-identical to
// FoldMoments over the expansion; Sum, Mean and M2 regroup additions
// (multiplication instead of repeated addition) and agree to ulps.
func FoldMomentsRuns(rc RunColumn) (Moments, error) {
	if err := rc.Validate(); err != nil {
		return Moments{}, err
	}
	var out Moments
	for i, x := range rc.Vals {
		c := rc.Counts[i]
		if rc.Nulls[i] {
			out.Missing += c
			continue
		}
		part := Moments{N: c, Sum: x * float64(c), Mean: x, M2: 0, Min: x, Max: x}
		out = MergeMoments(out, part)
	}
	return out, nil
}

// FoldFreqRuns tabulates a run column in O(runs log runs): the valid
// runs' (key, count) pairs sort by FoldFreq's key and equal keys
// coalesce, their counts added. Counts are integers, so the table is
// bit-identical to FoldFreq over the expansion.
func FoldFreqRuns(rc RunColumn) (FreqTable, error) {
	if err := rc.Validate(); err != nil {
		return FreqTable{}, err
	}
	type run struct {
		key uint64
		n   int64
	}
	runs := make([]run, 0, len(rc.Vals))
	for i, x := range rc.Vals {
		if !rc.Nulls[i] {
			runs = append(runs, run{key(x), rc.Counts[i]})
		}
	}
	slices.SortFunc(runs, func(a, b run) int { return cmp.Compare(a.key, b.key) })
	d := 0
	for i, r := range runs {
		if i == 0 || r.key != runs[i-1].key {
			d++
		}
	}
	t := FreqTable{Values: make([]float64, 0, d), Counts: make([]int64, 0, d)}
	for i, r := range runs {
		if i > 0 && r.key == runs[i-1].key {
			t.Counts[len(t.Counts)-1] += r.n
			continue
		}
		t.Values, t.Counts = append(t.Values, value(r.key)), append(t.Counts, r.n)
	}
	return t, nil
}

// RunTicks is the virtual cost of a run-native fold: one cell cost per
// run, not per row — the compression dividend E16 measures.
func (c Cost) RunTicks(runs int) int64 {
	return int64(runs) * c.CellCost
}
