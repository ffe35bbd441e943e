package summary

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"testing"

	"statdb/internal/exec"
	"statdb/internal/incr"
	"statdb/internal/obs"
	"statdb/internal/stats"
)

// spans counts the spans named name in the trees under roots, and how
// many of them carry attribute key=value.
func spans(roots []*obs.Span, name, key, value string) (n, with int) {
	var walk func(s obs.SpanNode)
	walk = func(s obs.SpanNode) {
		if s.Name == name {
			n++
			for _, a := range s.Attrs {
				if a.Key == key && a.Value == value {
					with++
				}
			}
		}
		for _, c := range s.Children {
			walk(c.Node())
		}
	}
	for _, r := range roots {
		walk(r.Node())
	}
	return n, with
}

// TestColdAttributeOnePass: asked every built-in in a shuffled order, a
// cold attribute is read and folded once, by rows or by runs; every
// other fill is a miss with no scan, finalized from the kept states
// (strategy=kept), and answers exactly what a cache asked only that
// function answers.
func TestColdAttributeOnePass(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := &nullable{xs: make([]float64, 3*ParallelThreshold), valid: make([]bool, 3*ParallelThreshold)}
	for i := range c.xs {
		c.xs[i], c.valid[i] = float64(rng.Intn(40))/4, rng.Intn(30) != 0
	}
	forms := map[string]func(fn string, db *DB) (float64, error){
		"rows": func(fn string, db *DB) (float64, error) { return db.Scalar(fn, "X", c.source()) },
		"runs": func(fn string, db *DB) (float64, error) {
			return db.ScalarFrom(fn, "X", func() Sources { return Sources{Rows: c.rows(), Runs: c.runs} })
		},
	}
	for form, ask := range forms {
		for _, workers := range []int{1, 4} {
			fns := Functions()
			rng.Shuffle(len(fns), func(i, j int) { fns[i], fns[j] = fns[j], fns[i] })
			db, _ := newDB()
			db.SetExec(exec.New(workers))
			tr := obs.NewTracer()
			db.SetTracer(tr)
			got := map[string]float64{}
			for _, fn := range fns {
				root := tr.Begin("query")
				v, err := ask(fn, db)
				root.End()
				if err != nil {
					t.Fatalf("%s/%d: %s: %v", form, workers, fn, err)
				}
				got[fn] = v
			}
			roots := tr.Recent()
			if n, _ := spans(roots, "scan", "", ""); n != 1 {
				t.Errorf("%s/%d: %d scans for twelve functions, want 1", form, workers, n)
			}
			if n, _ := spans(roots, "fold", "", ""); n != 1 {
				t.Errorf("%s/%d: %d folds for twelve functions, want 1", form, workers, n)
			}
			if n, kept := spans(roots, "summary.scalar", "strategy", "kept"); n != len(fns) || kept != len(fns)-1 {
				t.Errorf("%s/%d: %d of %d fills finalized from kept states, want all but the first", form, workers, kept, n)
			}
			if m := db.Counters().Misses; m != int64(len(fns)) {
				t.Errorf("%s/%d: %d misses, want %d: a fill from kept states is still a miss", form, workers, m, len(fns))
			}
			for _, fn := range fns {
				alone, _ := newDB()
				alone.SetExec(exec.New(workers))
				want, err := ask(fn, alone)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got[fn]) != math.Float64bits(want) {
					t.Errorf("%s/%d: %s from kept states %v, asked alone %v", form, workers, fn, got[fn], want)
				}
			}
		}
	}
}

// sameAnswer holds a kept or maintained answer to a fresh fold's: order
// statistics, counts and extremes bit for bit (NaN meeting NaN), moments
// within 1e-9 of the column's scale. Over a column holding a NaN, min and
// max depend on the order a fold meets the values in — a NaN first
// decides them — so they are not compared there.
func sameAnswer(fn string, got, want float64, xs []float64, valid []bool) bool {
	if math.Float64bits(got) == math.Float64bits(want) || got != got && want != want {
		return true
	}
	scale, nan := 0.0, false
	for i, x := range xs {
		if valid[i] {
			scale, nan = math.Max(scale, math.Abs(x)), nan || x != x
		}
	}
	switch fn {
	case "min", "max":
		return nan
	case "sum", "mean", "variance", "sd":
	default:
		return false
	}
	if fn == "sum" {
		scale *= float64(len(xs))
	}
	if fn == "variance" {
		scale *= scale
	}
	return math.Abs(got-want) <= 1e-9*math.Max(scale, 1)
}

// TestKeptStatesMatchRecompute drives keptStatesMachine over 200 seeds.
func TestKeptStatesMatchRecompute(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		keptStatesMachine(t, seed)
	}
}

// FuzzKeptStates drives keptStatesMachine over any seed.
func FuzzKeptStates(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(keptStatesMachine)
}

// pairFinal is the fuzzed pair result: over the rows valid in both
// columns, their count and the sum of the products.
func pairFinal(xs [][]float64, valid [][]bool) (Result, error) {
	var n, sum float64
	for i := range xs[0] {
		if valid[0][i] && valid[1][i] {
			n, sum = n+1, sum+xs[0][i]*xs[1][i]
		}
	}
	return VectorOf([]float64{n, sum}), nil
}

// keptStatesMachine drives a random sequence of fills (by rows and by
// runs), update batches and invalidations over a small column X with
// NaNs, ±0 and holes, under a window small enough that updates rebuild
// it, beside a second column Y and a pair result over both, filled
// through ResultFrom in either order. Updates and invalidations go to
// either column; an invalidation first rewrites its column wholesale, as
// a global derived rule regenerates one. A quarter of the steps break
// each column's reads: a fill's, or an update's refolds and window
// rebuilds. A failed fill must return the read's error and leave every
// lookup as it was; every other answer must equal a fresh cache's, every
// fresh entry — scalar or pair — must too after every step, and every
// kept state must describe X — a table equal to a refold, the moments'
// counts exact — with the cold states' bytes accounted within the budget.
func keptStatesMachine(t *testing.T, seed int64) {
	fns := Functions()
	rng := rand.New(rand.NewSource(seed))
	n := 30 + rng.Intn(40)
	cols := map[string]*nullable{}
	for _, attr := range []string{"X", "Y"} {
		cols[attr] = &nullable{xs: make([]float64, n), valid: make([]bool, n)}
		for i := range cols[attr].xs {
			cols[attr].xs[i], cols[attr].valid[i] = draw(rng)
		}
	}
	c := cols["X"]
	tuples := [][]string{{"X", "Y"}, {"Y", "X"}}
	bind := func(attr string) Source { return cols[attr].rows() }
	db, _ := newDB()
	db.WindowCapacity = 4 + rng.Intn(8)
	fresh := func(fn string) (float64, error) {
		ref, _ := newDB()
		return ref.Scalar(fn, "X", func() ([]float64, []bool) { return c.xs, c.valid })
	}
	freshPair := func(attrs []string) Result {
		ref, _ := newDB()
		r, err := ref.ResultFrom("pair", attrs, func(attr string) Source {
			return func() ([]float64, []bool, error) { return cols[attr].xs, cols[attr].valid, nil }
		}, pairFinal)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	samePair := func(got, want Result) bool {
		for i, w := range want.Vector {
			if g := got.Vector[i]; math.Float64bits(g) != math.Float64bits(w) && (g == g || w == w) {
				return false
			}
		}
		return true
	}
	lookups := func() map[string]uint64 {
		out := map[string]uint64{}
		for _, fn := range fns {
			if r, ok := db.Lookup(fn, "X"); ok {
				out[fn] = math.Float64bits(r.Scalar)
			}
		}
		for _, attrs := range tuples {
			if r, ok := db.Lookup("pair", attrs...); ok {
				for i, v := range r.Vector {
					out[fmt.Sprint(attrs, i)] = math.Float64bits(v)
				}
			}
		}
		return out
	}
	for step := 0; step < 40; step++ {
		for _, col := range cols {
			col.broken = rng.Intn(4) == 0
		}
		attr := []string{"X", "Y"}[rng.Intn(2)]
		switch k := rng.Intn(12); {
		case k < 5:
			fn := fns[rng.Intn(len(fns))]
			// Like a view's, both sources read the column as it is when
			// called.
			src := Sources{Rows: c.rows()}
			if rng.Intn(3) == 0 {
				src.Runs = c.runs
			}
			before := lookups()
			got, gerr := db.ScalarFrom(fn, "X", func() Sources { return src })
			if errors.Is(gerr, errRead) {
				if after := lookups(); !c.broken || !maps.Equal(after, before) {
					t.Fatalf("seed %d step %d: %s failed (%v) on a read broken %v; lookups %v, were %v",
						seed, step, fn, gerr, c.broken, after, before)
				}
				break
			}
			want, werr := fresh(fn)
			if (gerr == nil) != (werr == nil) || gerr == nil && !sameAnswer(fn, got, want, c.xs, c.valid) {
				t.Fatalf("seed %d step %d: %s = %v (%v), fresh %v (%v)", seed, step, fn, got, gerr, want, werr)
			}
		case k < 7:
			attrs := tuples[rng.Intn(2)]
			before := lookups()
			got, gerr := db.ResultFrom("pair", attrs, bind, pairFinal)
			if errors.Is(gerr, errRead) {
				if after := lookups(); !c.broken && !cols["Y"].broken || !maps.Equal(after, before) {
					t.Fatalf("seed %d step %d: pair%v failed (%v) on reads broken %v, %v; lookups %v, were %v",
						seed, step, attrs, gerr, c.broken, cols["Y"].broken, after, before)
				}
				break
			}
			if want := freshPair(attrs); gerr != nil || !samePair(got, want) {
				t.Fatalf("seed %d step %d: pair%v = %v (%v), fresh %v", seed, step, attrs, got, gerr, want)
			}
		case k < 10:
			batch := make([]incr.Delta, 1+rng.Intn(8))
			for j := range batch {
				x, ok := draw(rng)
				batch[j] = cols[attr].set(rng.Intn(n), x, ok)
			}
			db.OnUpdate(attr, batch)
		default:
			for i := range cols[attr].xs {
				cols[attr].xs[i], cols[attr].valid[i] = draw(rng)
			}
			db.Invalidate(attr)
		}
		for _, col := range cols {
			col.broken = false
		}
		for _, fn := range fns {
			if r, ok := db.Lookup(fn, "X"); ok {
				want, werr := fresh(fn)
				if werr != nil || !sameAnswer(fn, r.Scalar, want, c.xs, c.valid) {
					t.Fatalf("seed %d step %d: cached %s = %v, fresh %v (%v)", seed, step, fn, r.Scalar, want, werr)
				}
			}
		}
		for _, attrs := range tuples {
			if r, ok := db.Lookup("pair", attrs...); ok {
				if want := freshPair(attrs); !samePair(r, want) {
					t.Fatalf("seed %d step %d: cached pair%v = %v, fresh %v", seed, step, attrs, r, want)
				}
			}
		}
		var cold int64
		for s, row := range states {
			var refold State
			refold.Moments, refold.Freq = exec.ColumnFold(nil, c.xs, c.valid, exec.DefaultChunk, row.moments, row.freq)
			for attr, k := range keptStates(db, stateKind(s)) {
				got := row.state(k.val)
				if !sameTable(got.Freq, refold.Freq) || got.Moments.N != refold.Moments.N || got.Moments.Missing != refold.Moments.Missing {
					t.Fatalf("seed %d step %d: %s's kept state %d no longer describes the column", seed, step, attr, s)
				}
				if !k.maintained {
					cold += row.bytes(k.val)
				}
			}
		}
		if cold != db.coldBytes || cold > coldTableBudget {
			t.Fatalf("seed %d step %d: cold bytes %d accounted as %d", seed, step, cold, db.coldBytes)
		}
	}
}

// TestLostMaxRefoldsLikeAFirstFill: deleting the last copy of the max
// while max and variance are cached makes OnUpdate refold the kept
// moments. The refold cuts the column on the fold grid as a first fill
// does, so the kept state and the variance re-finalized from it equal a
// fresh cache's first fill bit for bit: the answer does not depend on
// the history that led to the column.
func TestLostMaxRefoldsLikeAFirstFill(t *testing.T) {
	for _, n := range []int{ParallelThreshold / 4, 3*ParallelThreshold + 5} {
		for _, workers := range []int{1, 4} {
			rng := rand.New(rand.NewSource(int64(n)))
			c := &nullable{xs: make([]float64, n), valid: make([]bool, n)}
			top := 0
			for i := range c.xs {
				c.xs[i], c.valid[i] = rng.NormFloat64()*1e3+1e4, rng.Intn(25) != 0
				if c.valid[i] && (!c.valid[top] || c.xs[i] > c.xs[top]) {
					top = i
				}
			}
			db, _ := newDB()
			db.SetExec(exec.New(workers))
			for _, fn := range []string{"variance", "max"} {
				if _, err := db.Scalar(fn, "X", c.source()); err != nil {
					t.Fatal(err)
				}
			}
			db.OnUpdate("X", []incr.Delta{c.set(top, 0, false)})
			if r := db.Counters().Rebuilds; r != 1 {
				t.Fatalf("%d rows, %d workers: %d rebuilds after the max went, want the refold", n, workers, r)
			}
			got, fresh := db.Lookup("variance", "X")
			first, _ := newDB()
			first.SetExec(exec.New(workers))
			want, err := first.Scalar("variance", "X", c.source())
			if err != nil {
				t.Fatal(err)
			}
			if !fresh || math.Float64bits(got.Scalar) != math.Float64bits(want) {
				t.Errorf("%d rows, %d workers: variance after the refold %v (fresh %v), first fill %v",
					n, workers, got.Scalar, fresh, want)
			}
			if k, w := keptStates(db, momentsState)["X"].val, keptStates(first, momentsState)["X"].val; *k.(*exec.KeptMoments) != *w.(*exec.KeptMoments) {
				t.Errorf("%d rows, %d workers: refolded kept state %+v, first fill's %+v", n, workers, k, w)
			}
		}
	}
}

// TestStaleEntryHoldsNoWindow: an entry that goes stale holds no window,
// so no later update slides it back to fresh with an answer the change
// that made it stale never reached. It goes stale four ways: a global
// derived rule rewrites its column and invalidates it; a batch whose
// delete the window cannot find, before a delta it never slid; and an
// update under either cache-wide policy, which slides no window.
func TestStaleEntryHoldsNoWindow(t *testing.T) {
	underPolicy := func(p Policy) func(db *DB, c *nullable) {
		return func(db *DB, c *nullable) {
			db.SetPolicy(p)
			db.OnUpdate("X", []incr.Delta{c.set(0, 2000, true)})
			db.SetPolicy(PolicyStrategies)
		}
	}
	for name, goStale := range map[string]func(db *DB, c *nullable){
		"rewrite and invalidate": func(db *DB, c *nullable) {
			for i := range c.xs {
				c.xs[i]++
			}
			db.Invalidate("X")
		},
		"failed delete": func(db *DB, c *nullable) {
			db.OnUpdate("X", []incr.Delta{{Delete: true, Old: 499.25}, c.set(10, 1000.5, true)})
		},
		"invalidate-all": underPolicy(PolicyInvalidateAll),
		"recompute-all":  underPolicy(PolicyRecomputeAll),
	} {
		c := &nullable{xs: make([]float64, 1000), valid: make([]bool, 1000)}
		for i := range c.xs {
			c.xs[i], c.valid[i] = float64(i), true
		}
		db, _ := newDB()
		ask(t, db, c, "median")
		goStale(db, c)
		db.OnUpdate("X", []incr.Delta{c.set(500, c.xs[500]+0.5, true)})
		want, err := stats.Median(c.xs, c.valid)
		if err != nil {
			t.Fatal(err)
		}
		if r, ok := db.Lookup("median", "X"); ok && r.Scalar != want {
			t.Errorf("%s: median fresh at %v, a recompute answers %v", name, r.Scalar, want)
		}
		if got := ask(t, db, c, "median"); got != want {
			t.Errorf("%s: median refilled to %v, want %v", name, got, want)
		}
	}
}
