package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"statdb/internal/obs"
)

// testColumn builds a deterministic column with ~5% missing values.
func testColumn(n int, seed int64) ([]float64, []bool) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	valid := make([]bool, n)
	for i := range xs {
		xs[i] = math.Floor(rng.NormFloat64()*1000) / 4
		valid[i] = rng.Intn(20) != 0
	}
	return xs, valid
}

// TestMomentsDeterministicAcrossWorkerCounts: fixed chunks + ordered
// merge mean the result is a function of the data and chunk size only.
func TestMomentsDeterministicAcrossWorkerCounts(t *testing.T) {
	xs, valid := testColumn(40009, 11)
	base := ColumnMoments(New(2), xs, valid, 1024)
	for _, workers := range []int{3, 4, 8} {
		m := ColumnMoments(New(workers), xs, valid, 1024)
		if m != base {
			t.Fatalf("workers=%d moments %+v != workers=2 %+v", workers, m, base)
		}
	}
	// Repeat runs are bit-identical too.
	again := ColumnMoments(New(4), xs, valid, 1024)
	if again != base {
		t.Fatal("repeat run differs")
	}
}

func TestMergeMomentsEmptySides(t *testing.T) {
	xs := []float64{1, 2, 3}
	a := FoldMoments(xs, nil)
	empty := FoldMoments(nil, nil)
	empty.Missing = 2
	if got := MergeMoments(empty, a); got.N != 3 || got.Missing != 2 || got.Min != 1 || got.Max != 3 {
		t.Errorf("merge(empty, a) = %+v", got)
	}
	if got := MergeMoments(a, empty); got.N != 3 || got.Missing != 2 {
		t.Errorf("merge(a, empty) = %+v", got)
	}
	both := MergeMoments(FoldMoments(nil, nil), FoldMoments(nil, nil))
	if _, err := both.MeanValue(); err == nil {
		t.Error("mean of empty merge should error")
	}
}

// TestFreqParallelBitExact: a merge adds counts, so a column's table
// is the same tabulated whole, or cut into chunks and merged at any
// pool width, as in the reference — the sorted column run-length
// encoded.
func TestFreqParallelBitExact(t *testing.T) {
	xs, valid := testColumn(30011, 3)
	var sorted []float64
	for i, x := range xs {
		if valid[i] {
			sorted = append(sorted, x)
		}
	}
	slices.Sort(sorted)
	var want FreqTable
	for i, x := range sorted {
		if i > 0 && x == sorted[i-1] {
			want.Counts[len(want.Counts)-1]++
			continue
		}
		want.Values, want.Counts = append(want.Values, x), append(want.Counts, 1)
	}
	serial := FoldFreq(xs, valid)
	if !slices.Equal(serial.Values, want.Values) || !slices.Equal(serial.Counts, want.Counts) {
		t.Fatal("FoldFreq differs from the sorted column run-length encoded")
	}
	for _, workers := range []int{1, 4} {
		_, par := ColumnFold(New(workers), xs, valid, 777, false, true)
		if !slices.Equal(par.Values, want.Values) || !slices.Equal(par.Counts, want.Counts) {
			t.Fatalf("workers=%d: merged chunk tables differ from the whole column's", workers)
		}
		if cap(par.Values) != len(par.Values) || cap(par.Counts) != len(par.Counts) {
			t.Errorf("workers=%d: %d values held in room for %d and %d", workers, len(par.Values), cap(par.Values), cap(par.Counts))
		}
	}
}

// TestFreqTableNaN: the table holds every NaN as one value, math.NaN(),
// first in order, and every zero as +0, whatever bits the column held,
// through a fold, a merge, a run fold and an update batch; it merges
// changes to the NaN like any other. A batch that takes away a copy the
// table does not hold is refused and leaves the table as it was.
func TestFreqTableNaN(t *testing.T) {
	nan := math.NaN()
	payload := math.Float64frombits(0xfff0000000000123) // a negative NaN
	same := func(tab FreqTable, values []float64, counts []int64) bool {
		return slices.EqualFunc(tab.Values, values, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) &&
			slices.Equal(tab.Counts, counts)
	}
	xs := []float64{2, payload, 2, math.Copysign(0, -1), nan, 0, -1, nan}
	tab := FoldFreq(xs, nil)
	if !same(tab, []float64{nan, -1, 0, 2}, []int64{3, 1, 2, 2}) {
		t.Fatalf("table = %v %v, want [NaN -1 0 2] [3 1 2 2]", tab.Values, tab.Counts)
	}
	if merged := MergeFreq([]FreqTable{FoldFreq(xs[:3], nil), FoldFreq(xs[3:5], nil), FoldFreq(xs[5:], nil)}); !same(merged, tab.Values, tab.Counts) {
		t.Fatalf("merged chunk tables = %v %v, want %v %v", merged.Values, merged.Counts, tab.Values, tab.Counts)
	}
	rc := RunColumn{Vals: xs, Nulls: make([]bool, len(xs)), Counts: []int64{1, 1, 1, 1, 1, 1, 1, 1}, Rows: len(xs)}
	if runs, err := FoldFreqRuns(rc); err != nil || !same(runs, tab.Values, tab.Counts) {
		t.Fatalf("run fold = %v %v (%v), want %v %v", runs.Values, runs.Counts, err, tab.Values, tab.Counts)
	}
	if !tab.Apply([]Change{{payload, -1}, {math.Copysign(0, -1), 1}, {0, -3}}) || !same(tab, []float64{nan, -1, 2}, []int64{2, 1, 2}) {
		t.Fatalf("after the zeros: %v %v, want [NaN -1 2] [2 1 2]", tab.Values, tab.Counts)
	}
	if !tab.Apply([]Change{{math.Copysign(0, -1), 1}}) || !same(tab, []float64{nan, -1, 0, 2}, []int64{2, 1, 1, 2}) {
		t.Fatalf("after inserting -0: %v %v, want [NaN -1 0 2] [2 1 1 2]", tab.Values, tab.Counts)
	}
	if !tab.Apply([]Change{{0, -1}, {nan, 1}}) || !same(tab, []float64{nan, -1, 2}, []int64{3, 1, 2}) {
		t.Fatalf("table = %v %v, want [NaN -1 2] [3 1 2]", tab.Values, tab.Counts)
	}
	if !tab.Apply([]Change{{nan, -1}, {5, 1}, {2, -1}, {nan, -2}, {2, 1}, {-1, -1}}) || !same(tab, []float64{2, 5}, []int64{2, 1}) {
		t.Fatalf("after the batch: %v %v, want [2 5] [2 1]", tab.Values, tab.Counts)
	}
	if tab.Apply([]Change{{5, 1}, {nan, -1}}) || !same(tab, []float64{2, 5}, []int64{2, 1}) {
		t.Errorf("a delete of an absent NaN: table now %v %v, want it refused and unchanged", tab.Values, tab.Counts)
	}
}

// TestFreqTableSizedToItsValues: the table is kept for as long as a view,
// so Apply gives back the room of values that are gone for good and grows
// by what it needs — never holding more than a quarter beyond its size.
func TestFreqTableSizedToItsValues(t *testing.T) {
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = float64(i % 200)
	}
	tab := FoldFreq(xs, nil)
	check := func(step string) {
		t.Helper()
		want := FoldFreq(xs, nil)
		if !slices.Equal(tab.Values, want.Values) || !slices.Equal(tab.Counts, want.Counts) {
			t.Fatalf("%s: merged table differs from the rebuilt one", step)
		}
		if n := len(tab.Values); cap(tab.Values) > n+n/4 || cap(tab.Counts) > n+n/4 {
			t.Errorf("%s: %d values held in room for %d and %d", step, n, cap(tab.Values), cap(tab.Counts))
		}
	}
	set := func(lo, hi int, to func(i int) float64) {
		var batch []Change
		for i := lo; i < hi; i++ {
			batch = append(batch, Change{xs[i], -1}, Change{to(i), 1})
			xs[i] = to(i)
		}
		if !tab.Apply(batch) {
			t.Fatal("batch refused")
		}
	}
	set(0, 400, func(i int) float64 { return float64(i % 50) }) // 200 values become 50
	check("shrunk")
	set(0, 300, func(i int) float64 { return float64(i) + 0.5 }) // 300 new ones
	check("grown")
}

// TestColumnFoldOnePass: asked for both families, ColumnFold returns what
// ColumnMoments and a frequency-only fold return apart, in one pass over the chunks;
// a family not asked comes back zero.
func TestColumnFoldOnePass(t *testing.T) {
	xs, valid := testColumn(30011, 5)
	for _, workers := range []int{1, 4} {
		reg := obs.NewRegistry()
		p := New(workers).WithMetrics(reg)
		m, f := ColumnFold(p, xs, valid, 777, true, true)
		if chunks := reg.Counter(obs.MExecChunks).Value(); workers > 1 && chunks != int64(len(Chunks(len(xs), 777))) {
			t.Errorf("workers=%d: %d chunks run for one fold of %d", workers, chunks, len(Chunks(len(xs), 777)))
		}
		if want := ColumnMoments(p, xs, valid, 777); m != want {
			t.Errorf("workers=%d: moments %+v, ColumnMoments %+v", workers, m, want)
		}
		if _, wt := ColumnFold(p, xs, valid, 777, false, true); !slices.Equal(f.Values, wt.Values) || !slices.Equal(f.Counts, wt.Counts) {
			t.Errorf("workers=%d: frequency table differs from a frequency-only fold's", workers)
		}
		if m, f := ColumnFold(p, xs, valid, 777, false, false); m != (Moments{}) || f.Values != nil {
			t.Errorf("workers=%d: no family asked, got %+v and %d values", workers, m, len(f.Values))
		}
	}
}

// BenchmarkColumnFoldFreq times a frequency fold of a 200 000-row
// column — a float measure of ~60 000 distinct values and a code of
// 100 — inline and at two workers: sort, run-length encoding and merge.
func BenchmarkColumnFoldFreq(b *testing.B) {
	const rows = 200000
	rng := rand.New(rand.NewSource(1))
	float, code := make([]float64, rows), make([]float64, rows)
	valid := make([]bool, rows)
	for i := range float {
		float[i] = math.Round(rng.NormFloat64()*15000) / 100
		code[i] = float64(rng.Intn(100))
		valid[i] = rng.Intn(100) != 0
	}
	for _, col := range []struct {
		name string
		xs   []float64
	}{{"float", float}, {"code", code}} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", col.name, workers), func(b *testing.B) {
				p := New(workers)
				b.ReportAllocs()
				for range b.N {
					ColumnFold(p, col.xs, valid, DefaultChunk, false, true)
				}
			})
		}
	}
}
