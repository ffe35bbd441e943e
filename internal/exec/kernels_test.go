package exec

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"statdb/internal/incr"
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

func approx(a, b, rel float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= rel*scale
}

// TestMomentsMatchIncr checks the chunk-merged moments against the
// finite-differencing maintainers of internal/incr rebuilt over the same
// column — the two forms of the same sufficient-statistics algebra.
func TestMomentsMatchIncr(t *testing.T) {
	xs, valid := testColumn(25013, 7)
	m := ColumnMoments(New(4), xs, valid, 512)

	count := incr.NewCount(xs, valid)
	if c, _ := count.Value(); int64(c) != m.N {
		t.Errorf("N = %d, incr count = %g", m.N, c)
	}
	sum := incr.NewSum(xs, valid)
	if s, _ := sum.Value(); !approx(s, m.Sum, 1e-12) {
		t.Errorf("Sum = %g, incr sum = %g", m.Sum, s)
	}
	mean := incr.NewMean(xs, valid)
	if v, _ := mean.Value(); !approx(v, m.Mean, 1e-12) {
		t.Errorf("Mean = %g, incr mean = %g", m.Mean, v)
	}
	vr := incr.NewVariance(xs, valid)
	got, err := m.Variance()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := vr.Value(); !approx(v, got, 1e-10) {
		t.Errorf("Variance = %g, incr variance = %g", got, v)
	}
	mn := incr.NewMin(xs, valid)
	mx := incr.NewMax(xs, valid)
	if v, _ := mn.Value(); v != m.Min {
		t.Errorf("Min = %g, incr min = %g (must be bit-identical)", m.Min, v)
	}
	if v, _ := mx.Value(); v != m.Max {
		t.Errorf("Max = %g, incr max = %g (must be bit-identical)", m.Max, v)
	}
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

// TestFreqParallelBitExact: frequency tables are order-insensitive, so
// the parallel kernel must match a serial tabulation exactly.
func TestFreqParallelBitExact(t *testing.T) {
	xs, valid := testColumn(30011, 3)
	serial := FoldFreq(xs, valid)
	par := ColumnFreq(New(4), xs, valid, 777)
	if len(serial) != len(par) {
		t.Fatalf("distinct %d != %d", len(par), len(serial))
	}
	for v, c := range serial {
		if par[v] != c {
			t.Errorf("value %g: parallel %d != serial %d", v, par[v], c)
		}
	}
	st, pt := serial.Table(), par.Table()
	if !slices.Equal(st.Values, pt.Values) || !slices.Equal(st.Counts, pt.Counts) {
		t.Fatal("sorted tables differ")
	}
}

// TestFreqTableNaN: a map gives every NaN its own key; the sorted table
// counts them as one value, first in order, and merges changes to it like
// any other. A batch that takes away a copy the table does not hold is
// refused and leaves the table as it was.
func TestFreqTableNaN(t *testing.T) {
	nan := math.NaN()
	same := func(tab FreqTable, values []float64, counts []int64) bool {
		return slices.EqualFunc(tab.Values, values, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) &&
			slices.Equal(tab.Counts, counts)
	}
	f := FoldFreq([]float64{2, nan, 2, nan, nan, -1}, nil)
	tab := f.Table()
	if !same(tab, []float64{nan, -1, 2}, []int64{3, 1, 2}) {
		t.Fatalf("table = %v %v, want [NaN -1 2] [3 1 2]", tab.Values, tab.Counts)
	}
	if f.Cardinality() != 3 || FoldFreq([]float64{2, 2, -1}, nil).Cardinality() != 2 {
		t.Errorf("Cardinality = %d with NaNs, want 3", f.Cardinality())
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
	tab := FoldFreq(xs, nil).Table()
	check := func(step string) {
		t.Helper()
		want := FoldFreq(xs, nil).Table()
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
