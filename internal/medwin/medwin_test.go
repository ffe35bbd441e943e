package medwin

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"statdb/internal/stats"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	return xs
}

func TestMedianMatchesStats(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 101, 1000} {
		xs := seq(n)
		w, err := NewMedian(xs, nil, 100)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.Value()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want, _ := stats.Median(xs, nil)
		if got != want {
			t.Errorf("n=%d: window %g, stats %g", n, got, want)
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewQuantile(seq(10), nil, 0, 100); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := NewQuantile(seq(10), nil, 1, 100); err == nil {
		t.Error("p=1 accepted")
	}
	if _, err := NewMedian(seq(10), nil, 2); err == nil {
		t.Error("capacity 2 accepted")
	}
}

func TestSlidesAbsorbSmallUpdates(t *testing.T) {
	xs := seq(1001)
	w, err := NewMedian(xs, nil, 101)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's claim: small updates move the median only slightly, so
	// they are absorbed by the window without touching the data.
	cur := append([]float64(nil), xs...)
	for i := 0; i < 40; i++ {
		old := cur[i]
		nv := old + 2000 // push a low value to the top: median shifts right
		if err := w.Delete(old); err != nil {
			t.Fatal(err)
		}
		w.Insert(nv)
		cur[i] = nv
		if w.NeedsRebuild() {
			t.Fatalf("rebuild needed after only %d updates with 101-wide window", i+1)
		}
		got, err := w.Value()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := stats.Median(cur, nil)
		if got != want {
			t.Fatalf("update %d: window %g, batch %g", i, got, want)
		}
	}
	if w.Rebuilds() != 0 {
		t.Errorf("rebuilds = %d", w.Rebuilds())
	}
}

func TestPointerRunsOffAndRebuilds(t *testing.T) {
	xs := seq(1001)
	w, err := NewMedian(xs, nil, 11) // tiny window: runs off quickly
	if err != nil {
		t.Fatal(err)
	}
	cur := append([]float64(nil), xs...)
	ran := false
	for i := 0; i < 400; i++ {
		old := cur[i]
		nv := old + 5000
		if err := w.Delete(old); err != nil {
			t.Fatal(err)
		}
		w.Insert(nv)
		cur[i] = nv
		if w.NeedsRebuild() {
			ran = true
			if _, err := w.Value(); err == nil {
				t.Fatal("Value succeeded despite run-off")
			}
			w.Rebuild(cur, nil)
		}
		got, err := w.Value()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := stats.Median(cur, nil)
		if got != want {
			t.Fatalf("update %d: window %g, batch %g", i, got, want)
		}
	}
	if !ran || w.Rebuilds() == 0 {
		t.Error("pointer never ran off an 11-wide window under 400 one-directional updates")
	}
}

func TestQuartileWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 50
	}
	for _, p := range []float64{0.05, 0.25, 0.75, 0.95} {
		w, err := NewQuantile(xs, nil, p, 100)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.Value()
		if err != nil {
			t.Fatalf("p=%g: %v", p, err)
		}
		want, _ := stats.Quantile(xs, nil, p)
		if !almostEq(got, want, 1e-12) {
			t.Errorf("p=%g: window %g, stats %g", p, got, want)
		}
	}
}

func TestWindowEmptiesGoesDegenerate(t *testing.T) {
	// Delete every window value: the structure must demand a rebuild
	// rather than serve wrong answers from the side counts.
	xs := seq(100)
	w, err := NewMedian(xs, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Window holds order stats around 49-50 (values ~47..51). Delete them.
	for v := 40.0; v <= 60; v++ {
		if err := w.Delete(v); err != nil {
			// Values outside the window delete through the counts.
			t.Fatalf("delete %g: %v", v, err)
		}
	}
	if !w.NeedsRebuild() {
		t.Fatal("window survived deletion of all its values")
	}
	if _, err := w.Value(); err == nil {
		t.Error("degenerate window still answered")
	}
	// Inserts while degenerate keep N correct.
	w.Insert(7)
	cur := make([]float64, 0, 80)
	for v := 0.0; v < 100; v++ {
		if v >= 40 && v <= 60 {
			continue
		}
		cur = append(cur, v)
	}
	cur = append(cur, 7)
	if w.N() != len(cur) {
		t.Errorf("N = %d, want %d", w.N(), len(cur))
	}
	w.Rebuild(cur, nil)
	got, err := w.Value()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := stats.Median(cur, nil)
	if got != want {
		t.Errorf("median after rebuild = %g, want %g", got, want)
	}
}

func TestDeleteAccounting(t *testing.T) {
	xs := seq(100)
	w, err := NewMedian(xs, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	n := w.N()
	if n != 100 {
		t.Fatalf("N = %d", n)
	}
	if err := w.Delete(0); err != nil { // below the window
		t.Fatal(err)
	}
	if err := w.Delete(99); err != nil { // above the window
		t.Fatal(err)
	}
	if w.N() != 98 {
		t.Errorf("N = %d after two deletes", w.N())
	}
	if err := w.Delete(47.5); err == nil {
		t.Error("delete of absent in-window value accepted")
	}
}

func TestValidityMask(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 1e9}
	valid := []bool{true, true, true, true, false}
	w, err := NewMedian(xs, valid, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := w.Value()
	if got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestRandomStreamAgainstBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	cur := make([]float64, 300)
	for i := range cur {
		cur[i] = math.Round(rng.NormFloat64() * 100)
	}
	w, err := NewMedian(cur, nil, 51)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 2000; step++ {
		i := rng.Intn(len(cur))
		old := cur[i]
		nv := math.Round(rng.NormFloat64() * 100)
		if err := w.Delete(old); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		w.Insert(nv)
		cur[i] = nv
		if w.NeedsRebuild() {
			w.Rebuild(cur, nil)
		}
		got, err := w.Value()
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		want, _ := stats.Median(cur, nil)
		if got != want {
			t.Fatalf("step %d: window %g, batch %g", step, got, want)
		}
	}
	t.Logf("rebuilds=%d slides=%d", w.Rebuilds(), w.slides)
}

// sortRebuild is the regeneration Rebuild replaced: sort every valid
// value, then cut the window out. Kept as the reference.
func sortRebuild(xs []float64, valid []bool, p float64, capacity int) (below, above int, window []float64) {
	var vals []float64
	for i, x := range xs {
		if valid == nil || valid[i] {
			vals = append(vals, x)
		}
	}
	sort.Float64s(vals)
	n := len(vals)
	if n == 0 {
		return 0, 0, nil
	}
	w := &Window{p: p, capacity: capacity}
	lo, hi := w.targetIdx(n)
	start := lo - (capacity-(hi-lo+1))/2
	if start < 0 {
		start = 0
	}
	end := start + capacity
	if end > n {
		end = n
		if start > end-capacity && end-capacity >= 0 {
			start = end - capacity
		}
		if start < 0 {
			start = 0
		}
	}
	return start, n - end, vals[start:end]
}

func checkRebuild(t *testing.T, label string, xs []float64, valid []bool, p float64, capacity int) {
	t.Helper()
	w, err := NewQuantile(xs, valid, p, capacity)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	below, above, window := sortRebuild(xs, valid, p, capacity)
	if w.below != below || w.above != above || len(w.window) != len(window) {
		t.Fatalf("%s p=%g cap=%d: below/above/len = %d/%d/%d, sorted reference %d/%d/%d",
			label, p, capacity, w.below, w.above, len(w.window), below, above, len(window))
	}
	for i := range window {
		same := w.window[i] == window[i] || (math.IsNaN(w.window[i]) && math.IsNaN(window[i]))
		if !same {
			t.Fatalf("%s p=%g cap=%d: window[%d] = %g, sorted reference %g", label, p, capacity, i, w.window[i], window[i])
		}
	}
}

func TestRebuildMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := map[string]func(n int) []float64{
		"uniform":    func(n int) []float64 { return randFloats(rng, n, 1e6) },
		"duplicates": func(n int) []float64 { return randFloats(rng, n, 5) },
		"all-equal": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 7
			}
			return xs
		},
		"sorted": seq,
		"reversed": func(n int) []float64 {
			xs := seq(n)
			for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
				xs[i], xs[j] = xs[j], xs[i]
			}
			return xs
		},
		"organ-pipe": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(min(i, n-1-i))
			}
			return xs
		},
		"with-nan": func(n int) []float64 {
			xs := randFloats(rng, n, 50)
			for i := 0; i < n; i += 7 {
				xs[i] = math.NaN()
			}
			return xs
		},
	}
	for label, gen := range shapes {
		for _, n := range []int{1, 2, 5, 16, 17, 99, 100, 101, 1000, 5003} {
			for _, p := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
				for _, capacity := range []int{3, 10, 100} {
					xs := gen(n)
					checkRebuild(t, label, xs, nil, p, capacity)
					valid := make([]bool, n)
					for i := range valid {
						valid[i] = rng.Intn(5) != 0
					}
					checkRebuild(t, label+"+nulls", xs, valid, p, capacity)
				}
			}
		}
	}
	checkRebuild(t, "empty", nil, nil, 0.5, 100)
	checkRebuild(t, "all-null", []float64{1, 2, 3}, make([]bool, 3), 0.5, 100)
}

func randFloats(rng *rand.Rand, n int, distinct float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Floor(rng.Float64() * distinct)
	}
	return xs
}

// Selection must not go quadratic on the inputs that defeat a naive
// pivot: a million sorted, or constant values regenerate well under
// the cap (a quadratic pass would take hours).
func TestRebuildLinearOnSortedAndConstant(t *testing.T) {
	const n = 1_000_000
	constant := make([]float64, n)
	for name, xs := range map[string][]float64{"sorted": seq(n), "constant": constant} {
		start := time.Now()
		checkRebuild(t, name, xs, nil, 0.5, 100)
		if d := time.Since(start); d > 20*time.Second {
			t.Errorf("%s: rebuild + sorted reference over %d values took %v", name, n, d)
		}
	}
}

func BenchmarkWindowRebuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := randFloats(rng, 200_000, 1e5)
	w, err := NewQuantile(xs, nil, 0.5, 100)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Rebuild(xs, nil)
	}
}

// table tabulates xs as a sorted frequency table: distinct values
// ascending, NaNs first and counted as one value.
func table(xs []float64) (values []float64, counts []int64) {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i, x := range sorted {
		if i > 0 && (x == sorted[i-1] || x != x && sorted[i-1] != sorted[i-1]) {
			counts[len(counts)-1]++
			continue
		}
		values, counts = append(values, x), append(counts, 1)
	}
	return values, counts
}

// TestNewQuantileFreqMatchesColumn: a window seeded from the column's
// frequency table is the window NewQuantile builds from the column —
// the same counts either side, the same order statistics, the same value.
func TestNewQuantileFreqMatchesColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for label, distinct := range map[string]float64{"uniform": 1e6, "duplicates": 5, "all-equal": 1} {
		for _, n := range []int{0, 1, 2, 17, 100, 1001} {
			xs := randFloats(rng, n, distinct)
			if label == "duplicates" && n > 0 {
				xs[0] = math.NaN()
			}
			for _, p := range []float64{0.01, 0.25, 0.5, 0.99} {
				for _, capacity := range []int{3, 10, 100} {
					want, err := NewQuantile(xs, nil, p, capacity)
					if err != nil {
						t.Fatal(err)
					}
					values, counts := table(xs)
					got, err := NewQuantileFreq(values, counts, p, capacity)
					if err != nil {
						t.Fatal(err)
					}
					same := got.below == want.below && got.above == want.above && len(got.window) == len(want.window)
					for i := 0; same && i < len(got.window); i++ {
						same = math.Float64bits(got.window[i]) == math.Float64bits(want.window[i]) ||
							got.window[i] != got.window[i] && want.window[i] != want.window[i]
					}
					gv, gerr := got.Value()
					wv, werr := want.Value()
					if !same || (gerr == nil) != (werr == nil) || gerr == nil && gv != wv && gv == gv {
						t.Fatalf("%s n=%d p=%g cap=%d: from the table %d|%v|%d = %v, from the column %d|%v|%d = %v",
							label, n, p, capacity, got.below, got.window, got.above, gv, want.below, want.window, want.above, wv)
					}
				}
			}
		}
	}
}

// TestNaNSlidesInOrder: a NaN inserted or deleted slides like any value,
// ordered first — where Rebuild and stats.Quantile put it — so the
// maintained quantile stays the rebuilt one.
func TestNaNSlidesInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	draw := func() float64 {
		if rng.Intn(6) == 0 {
			return math.NaN()
		}
		return float64(rng.Intn(12)) / 4
	}
	for trial := 0; trial < 100; trial++ {
		xs := make([]float64, 40+rng.Intn(40))
		for i := range xs {
			xs[i] = draw()
		}
		p := []float64{0.25, 0.5, 0.75}[trial%3]
		w, err := NewQuantile(xs, nil, p, 10)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 30; step++ {
			i, x := rng.Intn(len(xs)), draw()
			if err := w.Delete(xs[i]); err != nil {
				t.Fatalf("trial %d step %d: delete %v: %v", trial, step, xs[i], err)
			}
			w.Insert(x)
			xs[i] = x
			if w.NeedsRebuild() {
				w.Rebuild(xs, nil)
			}
			got, err := w.Value()
			want, werr := stats.Quantile(xs, nil, p)
			if err != nil || werr != nil || got != want && !(got != got && want != want) {
				t.Fatalf("trial %d step %d: window %v (%v), stats %v (%v)", trial, step, got, err, want, werr)
			}
		}
	}
}
