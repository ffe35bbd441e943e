package stats

import (
	"math"
	"testing"

	"statdb/internal/exec"
)

// runsLCG is the package's deterministic generator for run-path property
// tests (math/rand is banned here).
type runsLCG uint64

func (g *runsLCG) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g)
}

func (g *runsLCG) intn(n int) int { return int(g.next() % uint64(n)) }

// runColumn builds a census-shaped run column: integer-valued payloads
// (so sums are exact and even the regrouped moments must match bit for
// bit), occasional null runs, run lengths 1..60.
func runColumn(g *runsLCG, runs int) exec.RunColumn {
	var rc exec.RunColumn
	for i := 0; i < runs; i++ {
		c := int64(1 + g.intn(60))
		rc.Vals = append(rc.Vals, float64(g.intn(9)*25))
		rc.Nulls = append(rc.Nulls, g.intn(6) == 0)
		rc.Counts = append(rc.Counts, c)
		rc.Rows += int(c)
	}
	return rc
}

// expandRuns decompresses rc to the row form the serial operators
// consume — the oracle side of the comparison.
func expandRuns(t *testing.T, rc exec.RunColumn) (xs []float64, valid []bool) {
	t.Helper()
	if err := rc.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, v := range rc.Vals {
		for j := int64(0); j < rc.Counts[i]; j++ {
			if rc.Nulls[i] {
				v = 0
			}
			xs = append(xs, v)
			valid = append(valid, !rc.Nulls[i])
		}
	}
	return xs, valid
}

// TestRunOperatorsMatchSerial: every run-path operator must agree with
// its serial twin over the expanded column — bit for bit on this
// integer-valued data, where even the regrouped sums are exact. (The
// scalar aggregates' run form is checked by internal/view's
// TestAggregateForms, through the one table that now computes them.)
func TestRunOperatorsMatchSerial(t *testing.T) {
	g := runsLCG(99)
	for trial := 0; trial < 100; trial++ {
		rc := runColumn(&g, 1+g.intn(40))
		xs, valid := expandRuns(t, rc)
		n := Count(xs, valid)

		fv, fc, err := FrequenciesRuns(rc)
		if err != nil {
			t.Fatal(err)
		}
		wfv, wfc := Frequencies(xs, valid)
		if len(fv) != len(wfv) {
			t.Fatalf("trial %d frequencies: %d values, want %d", trial, len(fv), len(wfv))
		}
		for i := range wfv {
			if math.Float64bits(fv[i]) != math.Float64bits(wfv[i]) || fc[i] != wfc[i] {
				t.Fatalf("trial %d frequencies[%d]: (%g,%d) != (%g,%d)", trial, i, fv[i], fc[i], wfv[i], wfc[i])
			}
		}

		if n > 0 {
			gs, err := SummarizeRuns(rc)
			if err != nil {
				t.Fatal(err)
			}
			ws, err := Summarize(xs, valid)
			if err != nil {
				t.Fatal(err)
			}
			if gs.N != ws.N || gs.Missing != ws.Missing || gs.Unique != ws.Unique {
				t.Fatalf("trial %d summary counts: %+v vs %+v", trial, gs, ws)
			}
			for _, pair := range [][2]float64{
				{gs.Mean, ws.Mean}, {gs.Min, ws.Min}, {gs.Max, ws.Max},
				{gs.Median, ws.Median}, {gs.Q1, ws.Q1}, {gs.Q3, ws.Q3}, {gs.Mode, ws.Mode},
			} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Fatalf("trial %d summary: %g != %g (%+v vs %+v)", trial, pair[0], pair[1], gs, ws)
				}
			}
			sdOK := math.IsNaN(gs.SD) && math.IsNaN(ws.SD) ||
				math.Abs(gs.SD-ws.SD) <= 1e-9*(1+math.Abs(ws.SD))
			if !sdOK {
				t.Fatalf("trial %d summary sd: %g != %g", trial, gs.SD, ws.SD)
			}
		}
	}
}

// TestRunOperatorErrors: the run path keeps the serial error semantics —
// same sentinel on empty data, same quantile range check.
func TestRunOperatorErrors(t *testing.T) {
	var empty exec.RunColumn
	if _, err := ModeFreq(nil, nil); err != ErrNoData {
		t.Errorf("ModeFreq(empty) = %v, want ErrNoData", err)
	}
	if _, err := QuantileFreq(nil, nil, 0.5); err != ErrNoData {
		t.Errorf("QuantileFreq(empty) = %v, want ErrNoData", err)
	}
	if _, err := SummarizeRuns(empty); err != ErrNoData {
		t.Errorf("SummarizeRuns(empty) = %v, want ErrNoData", err)
	}
	if _, err := QuantileFreq([]float64{5}, []int64{1}, 1.5); err == nil {
		t.Error("out-of-range quantile accepted")
	}

	bad := exec.RunColumn{Vals: []float64{1}, Nulls: []bool{false}, Counts: []int64{2}, Rows: 1}
	if _, _, err := FrequenciesRuns(bad); err == nil {
		t.Error("FrequenciesRuns accepted a corrupt run column")
	}
	if _, err := SummarizeRuns(bad); err == nil {
		t.Error("SummarizeRuns accepted a corrupt run column")
	}
}
