package exec

import (
	"errors"
	"math"
	"testing"

	"statdb/internal/storage"
)

// lcg is a tiny deterministic generator for the property tests (the
// engine's test suite bans math/rand so folds are replayable).
type lcg uint64

func (g *lcg) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g)
}

func (g *lcg) intn(n int) int { return int(g.next() % uint64(n)) }

// randomRunColumn builds a structurally valid run column: a few distinct
// values (so coalescing and ties both occur), occasional null runs, run
// lengths from 1 to 40.
func randomRunColumn(g *lcg, runs int) RunColumn {
	rc := RunColumn{}
	for i := 0; i < runs; i++ {
		c := int64(1 + g.intn(40))
		rc.Counts = append(rc.Counts, c)
		rc.Nulls = append(rc.Nulls, g.intn(5) == 0)
		rc.Vals = append(rc.Vals, float64(g.intn(7)*3-9))
		rc.Rows += int(c)
	}
	return rc
}

// Expand decompresses the column to the row form the row kernels
// consume — the oracle the property tests fold both ways through.
func (rc RunColumn) Expand() (xs []float64, valid []bool, err error) {
	if err := rc.Validate(); err != nil {
		return nil, nil, err
	}
	xs = make([]float64, 0, rc.Rows)
	valid = make([]bool, 0, rc.Rows)
	for i, v := range rc.Vals {
		for j := int64(0); j < rc.Counts[i]; j++ {
			if rc.Nulls[i] {
				xs = append(xs, 0)
				valid = append(valid, false)
			} else {
				xs = append(xs, v)
				valid = append(valid, true)
			}
		}
	}
	return xs, valid, nil
}

// TestFoldRunsMatchesExpandThenFold: over many pseudo-random columns the
// run kernels must agree with their row twins on the expansion — count,
// min, max and frequencies bit for bit; sum-based moments to
// ulps (the run path multiplies where the row path repeatedly adds).
func TestFoldRunsMatchesExpandThenFold(t *testing.T) {
	g := lcg(12345)
	for trial := 0; trial < 200; trial++ {
		rc := randomRunColumn(&g, 1+g.intn(60))
		xs, valid, err := rc.Expand()
		if err != nil {
			t.Fatal(err)
		}

		got, err := FoldMomentsRuns(rc)
		if err != nil {
			t.Fatal(err)
		}
		want := FoldMoments(xs, valid)
		if got.N != want.N || got.Missing != want.Missing {
			t.Fatalf("trial %d: counts (%d,%d) != (%d,%d)", trial, got.N, got.Missing, want.N, want.Missing)
		}
		if want.N > 0 && (math.Float64bits(got.Min) != math.Float64bits(want.Min) ||
			math.Float64bits(got.Max) != math.Float64bits(want.Max)) {
			t.Fatalf("trial %d: extrema (%g,%g) != (%g,%g)", trial, got.Min, got.Max, want.Min, want.Max)
		}
		// Test values are small integers: sums stay exact, so even the
		// regrouped moments must match bit for bit here.
		if math.Float64bits(got.Sum) != math.Float64bits(want.Sum) {
			t.Fatalf("trial %d: sum %g != %g", trial, got.Sum, want.Sum)
		}
		if math.Abs(got.M2-want.M2) > 1e-9*(1+math.Abs(want.M2)) {
			t.Fatalf("trial %d: M2 %g != %g", trial, got.M2, want.M2)
		}

		gf, err := FoldFreqRuns(rc)
		if err != nil {
			t.Fatal(err)
		}
		wf := FoldFreq(xs, valid)
		if len(gf) != len(wf) {
			t.Fatalf("trial %d: %d distinct values, want %d", trial, len(gf), len(wf))
		}
		for v, c := range wf {
			if gf[v] != c {
				t.Fatalf("trial %d: freq[%g] = %d, want %d", trial, v, gf[v], c)
			}
		}
	}
}

// TestRunColumnValidate: every malformed shape must surface as
// ErrCorruptRuns — and through it storage.ErrCorrupt — from every kernel,
// never as a silent drop or a wrong answer.
func TestRunColumnValidate(t *testing.T) {
	cases := []struct {
		name string
		rc   RunColumn
	}{
		{"counts overflow rows", RunColumn{Vals: []float64{1, 2}, Nulls: []bool{false, false}, Counts: []int64{3, 4}, Rows: 5}},
		{"counts underflow rows", RunColumn{Vals: []float64{1}, Nulls: []bool{false}, Counts: []int64{3}, Rows: 10}},
		{"zero count", RunColumn{Vals: []float64{1}, Nulls: []bool{false}, Counts: []int64{0}, Rows: 0}},
		{"negative count", RunColumn{Vals: []float64{1, 2}, Nulls: []bool{false, false}, Counts: []int64{5, -2}, Rows: 3}},
		{"slice mismatch", RunColumn{Vals: []float64{1, 2}, Nulls: []bool{false}, Counts: []int64{1, 1}, Rows: 2}},
	}
	for _, tc := range cases {
		if err := tc.rc.Validate(); !errors.Is(err, ErrCorruptRuns) {
			t.Errorf("%s: Validate = %v, want ErrCorruptRuns", tc.name, err)
		}
		if _, err := FoldMomentsRuns(tc.rc); !errors.Is(err, ErrCorruptRuns) {
			t.Errorf("%s: FoldMomentsRuns = %v, want ErrCorruptRuns", tc.name, err)
		}
		if _, err := FoldFreqRuns(tc.rc); !errors.Is(err, storage.ErrCorrupt) {
			t.Errorf("%s: FoldFreqRuns = %v, want storage.ErrCorrupt via ErrCorruptRuns", tc.name, err)
		}
		if _, _, err := tc.rc.Expand(); !errors.Is(err, ErrCorruptRuns) {
			t.Errorf("%s: Expand = %v, want ErrCorruptRuns", tc.name, err)
		}
	}
	ok := RunColumn{Vals: []float64{1, 2}, Nulls: []bool{false, true}, Counts: []int64{3, 2}, Rows: 5}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid column rejected: %v", err)
	}
	var empty RunColumn
	if err := empty.Validate(); err != nil {
		t.Errorf("empty column rejected: %v", err)
	}
}

// TestRunTicks: the run fold charges per run, not per row.
func TestRunTicks(t *testing.T) {
	c := DefaultCost()
	if got := c.RunTicks(32); got != 32*c.CellCost {
		t.Errorf("RunTicks(32) = %d, want %d", got, 32*c.CellCost)
	}
	if got := c.RunTicks(0); got != 0 {
		t.Errorf("RunTicks(0) = %d", got)
	}
}

// BenchmarkFoldRunsVsRows: the kernel-level form of the E16 claim — a
// low-cardinality column folds orders of magnitude faster as runs.
func BenchmarkFoldRunsVsRows(b *testing.B) {
	// 100k rows in 100 runs: census-like compression.
	rc := RunColumn{}
	for i := 0; i < 100; i++ {
		rc.Vals = append(rc.Vals, float64(i%8))
		rc.Nulls = append(rc.Nulls, false)
		rc.Counts = append(rc.Counts, 1000)
		rc.Rows += 1000
	}
	xs, valid, err := rc.Expand()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("runs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := FoldMomentsRuns(rc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rows", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = FoldMoments(xs, valid)
		}
	})
}
