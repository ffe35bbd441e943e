package stats

import (
	"fmt"
	"sort"

	"statdb/internal/dataset"
)

// CrossTab is a two-way contingency table over two category attributes —
// the confirmatory-analysis structure of Section 2.2 ("a chi-squared test
// may be applied to a cross-tabulation of data according to two
// attributes").
type CrossTab struct {
	RowAttr, ColAttr string
	RowLabels        []string
	ColLabels        []string
	Counts           [][]int // [row][col]
	total            int
}

// NewCrossTab tabulates ds over the two named attributes, rendering cell
// values with Value.String (coded attributes can be Decoded first for
// readable labels). Rows with a missing value in either attribute are
// skipped.
func NewCrossTab(ds *dataset.Dataset, rowAttr, colAttr string) (*CrossTab, error) {
	ri := ds.Schema().Index(rowAttr)
	if ri < 0 {
		return nil, fmt.Errorf("stats: crosstab: no attribute %q", rowAttr)
	}
	ci := ds.Schema().Index(colAttr)
	if ci < 0 {
		return nil, fmt.Errorf("stats: crosstab: no attribute %q", colAttr)
	}
	cells := make(map[string]map[string]int)
	rowSet := map[string]bool{}
	colSet := map[string]bool{}
	total := 0
	for r := 0; r < ds.Rows(); r++ {
		rv, cv := ds.Cell(r, ri), ds.Cell(r, ci)
		if rv.IsNull() || cv.IsNull() {
			continue
		}
		rk, ck := rv.String(), cv.String()
		rowSet[rk], colSet[ck] = true, true
		if cells[rk] == nil {
			cells[rk] = make(map[string]int)
		}
		cells[rk][ck]++
		total++
	}
	ct := &CrossTab{RowAttr: rowAttr, ColAttr: colAttr, total: total}
	for k := range rowSet {
		ct.RowLabels = append(ct.RowLabels, k)
	}
	for k := range colSet {
		ct.ColLabels = append(ct.ColLabels, k)
	}
	sort.Strings(ct.RowLabels)
	sort.Strings(ct.ColLabels)
	ct.Counts = make([][]int, len(ct.RowLabels))
	for i, rk := range ct.RowLabels {
		ct.Counts[i] = make([]int, len(ct.ColLabels))
		for j, ck := range ct.ColLabels {
			ct.Counts[i][j] = cells[rk][ck]
		}
	}
	return ct, nil
}

// WeightedCrossTab tabulates summed weights instead of row counts — the
// natural form for pre-aggregated census data where each record carries a
// POPULATION weight.
//
//lint:allow test-only leaf statistical operator: cross-tabulation of pre-aggregated (weighted) census records
func WeightedCrossTab(ds *dataset.Dataset, rowAttr, colAttr, weightAttr string) (*CrossTab, error) {
	ct, err := NewCrossTab(ds, rowAttr, colAttr)
	if err != nil {
		return nil, err
	}
	wi := ds.Schema().Index(weightAttr)
	if wi < 0 {
		return nil, fmt.Errorf("stats: crosstab: no weight attribute %q", weightAttr)
	}
	ri := ds.Schema().Index(rowAttr)
	ci := ds.Schema().Index(colAttr)
	rowIdx := make(map[string]int, len(ct.RowLabels))
	for i, l := range ct.RowLabels {
		rowIdx[l] = i
	}
	colIdx := make(map[string]int, len(ct.ColLabels))
	for j, l := range ct.ColLabels {
		colIdx[l] = j
	}
	for i := range ct.Counts {
		for j := range ct.Counts[i] {
			ct.Counts[i][j] = 0
		}
	}
	ct.total = 0
	for r := 0; r < ds.Rows(); r++ {
		rv, cv, wv := ds.Cell(r, ri), ds.Cell(r, ci), ds.Cell(r, wi)
		if rv.IsNull() || cv.IsNull() || wv.IsNull() {
			continue
		}
		w := int(wv.AsFloat())
		ct.Counts[rowIdx[rv.String()]][colIdx[cv.String()]] += w
		ct.total += w
	}
	return ct, nil
}

// Total returns the table's grand total.
func (ct *CrossTab) Total() int { return ct.total }

// RowTotals returns per-row marginal totals.
func (ct *CrossTab) RowTotals() []int {
	out := make([]int, len(ct.RowLabels))
	for i := range ct.Counts {
		for _, c := range ct.Counts[i] {
			out[i] += c
		}
	}
	return out
}

// ColTotals returns per-column marginal totals.
func (ct *CrossTab) ColTotals() []int {
	out := make([]int, len(ct.ColLabels))
	for i := range ct.Counts {
		for j, c := range ct.Counts[i] {
			out[j] += c
		}
	}
	return out
}

// ChiSquareResult reports a chi-squared independence test.
type ChiSquareResult struct {
	Statistic float64
	DF        int
	PValue    float64
}

// ChiSquare tests independence of the two attributes of ct — "is the
// proportion of people who live past 40 dependent on race?" (Section 2.2).
func (ct *CrossTab) ChiSquare() (ChiSquareResult, error) {
	r, c := len(ct.RowLabels), len(ct.ColLabels)
	if r < 2 || c < 2 {
		return ChiSquareResult{}, fmt.Errorf("stats: chi-square needs a >=2x2 table, have %dx%d", r, c)
	}
	if ct.total == 0 {
		return ChiSquareResult{}, ErrNoData
	}
	rt, colt := ct.RowTotals(), ct.ColTotals()
	stat := 0.0
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			expected := float64(rt[i]) * float64(colt[j]) / float64(ct.total)
			if expected == 0 {
				continue
			}
			d := float64(ct.Counts[i][j]) - expected
			stat += d * d / expected
		}
	}
	df := (r - 1) * (c - 1)
	return ChiSquareResult{Statistic: stat, DF: df, PValue: ChiSquareSurvival(stat, df)}, nil
}

// GoodnessOfFit tests observed bin counts against expected proportions
// that sum to 1 — "a goodness-of-fit test may be applied to see if a
// particular attribute does indeed follow a hypothesized distribution"
// (Section 2.2).
//
//lint:allow test-only paper-named: the goodness-of-fit test of §2.2
func GoodnessOfFit(observed []int, expectedProp []float64) (ChiSquareResult, error) {
	if len(observed) != len(expectedProp) {
		return ChiSquareResult{}, fmt.Errorf("stats: %d observed bins vs %d expected", len(observed), len(expectedProp))
	}
	if len(observed) < 2 {
		return ChiSquareResult{}, fmt.Errorf("stats: goodness of fit needs >= 2 bins")
	}
	total := 0
	for _, o := range observed {
		total += o
	}
	if total == 0 {
		return ChiSquareResult{}, ErrNoData
	}
	propSum := 0.0
	for _, p := range expectedProp {
		propSum += p
	}
	if propSum < 0.999 || propSum > 1.001 {
		return ChiSquareResult{}, fmt.Errorf("stats: expected proportions sum to %g, want 1", propSum)
	}
	stat := 0.0
	for i, o := range observed {
		e := expectedProp[i] * float64(total)
		if e == 0 {
			if o != 0 {
				return ChiSquareResult{}, fmt.Errorf("stats: observed %d in zero-probability bin %d", o, i)
			}
			continue
		}
		d := float64(o) - e
		stat += d * d / e
	}
	df := len(observed) - 1
	return ChiSquareResult{Statistic: stat, DF: df, PValue: ChiSquareSurvival(stat, df)}, nil
}
