package summary

import (
	"math"
	"math/rand"
	"testing"

	"statdb/internal/exec"
	"statdb/internal/incr"
	"statdb/internal/obs"
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
	rc := exec.RunColumn{Rows: len(c.xs)}
	for i, x := range c.xs {
		rc.Vals, rc.Nulls, rc.Counts = append(rc.Vals, x), append(rc.Nulls, !c.valid[i]), append(rc.Counts, 1)
	}
	forms := map[string]func(fn string, db *DB) (float64, error){
		"rows": func(fn string, db *DB) (float64, error) { return db.Scalar(fn, "X", c.source()) },
		"runs": func(fn string, db *DB) (float64, error) {
			return db.ScalarFrom(fn, "X", Sources{Rows: c.source(), Runs: func() (exec.RunColumn, bool) { return rc, true }})
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

// TestKeptStatesMatchRecompute drives random sequences of fills (by rows
// and by runs), update batches and invalidations over a small column with
// NaNs and holes. Every answer must equal a fresh cache's, every fresh
// entry must too after every step, and the kept states must describe the
// column: each table equal to a refold, the moments' counts exact, and
// the cold tables' bytes accounted within the budget.
func TestKeptStatesMatchRecompute(t *testing.T) {
	fns := Functions()
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(40)
		c := &nullable{xs: make([]float64, n), valid: make([]bool, n)}
		for i := range c.xs {
			c.xs[i], c.valid[i] = draw(rng)
		}
		db, _ := newDB()
		fresh := func(fn string) (float64, error) {
			ref, _ := newDB()
			return ref.Scalar(fn, "X", func() ([]float64, []bool) { return c.xs, c.valid })
		}
		for step := 0; step < 40; step++ {
			switch k := rng.Intn(10); {
			case k < 5:
				fn := fns[rng.Intn(len(fns))]
				src := Sources{Rows: c.source()}
				if rng.Intn(3) == 0 {
					// Like a view's, the run source reads the column as it is
					// when called: a refill reuses the entry's source.
					src.Runs = func() (exec.RunColumn, bool) {
						rc := exec.RunColumn{Rows: len(c.xs)}
						for i, x := range c.xs {
							rc.Vals, rc.Nulls, rc.Counts = append(rc.Vals, x), append(rc.Nulls, !c.valid[i]), append(rc.Counts, 1)
						}
						return rc, true
					}
				}
				got, gerr := db.ScalarFrom(fn, "X", src)
				want, werr := fresh(fn)
				if (gerr == nil) != (werr == nil) || gerr == nil && !sameAnswer(fn, got, want, c.xs, c.valid) {
					t.Fatalf("seed %d step %d: %s = %v (%v), fresh %v (%v)", seed, step, fn, got, gerr, want, werr)
				}
			case k < 8:
				batch := make([]incr.Delta, 1+rng.Intn(8))
				for j := range batch {
					x, ok := draw(rng)
					batch[j] = c.set(rng.Intn(len(c.xs)), x, ok)
				}
				db.OnUpdate("X", batch)
			default:
				db.Invalidate("X")
			}
			for _, fn := range fns {
				if r, ok := db.Lookup(fn, "X"); ok {
					want, werr := fresh(fn)
					if werr != nil || !sameAnswer(fn, r.Scalar, want, c.xs, c.valid) {
						t.Fatalf("seed %d step %d: cached %s = %v, fresh %v (%v)", seed, step, fn, r.Scalar, want, werr)
					}
				}
			}
			var cold int64
			for attr, k := range db.tables {
				if !sameTable(k.FreqTable, exec.FoldFreq(c.xs, c.valid)) {
					t.Fatalf("seed %d step %d: %s's kept table no longer describes the column", seed, step, attr)
				}
				if !k.maintained {
					cold += k.bytes()
				}
			}
			if cold != db.coldBytes || cold > coldTableBudget {
				t.Fatalf("seed %d step %d: cold bytes %d accounted as %d", seed, step, cold, db.coldBytes)
			}
			if k := db.moments["X"]; k != nil {
				m := exec.FoldMoments(c.xs, c.valid)
				if k.N != m.N || k.Missing != m.Missing {
					t.Fatalf("seed %d step %d: kept moments count %d/%d, refold %d/%d", seed, step, k.N, k.Missing, m.N, m.Missing)
				}
			}
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
			if k, w := db.moments["X"].KeptMoments, first.moments["X"].KeptMoments; k != w {
				t.Errorf("%d rows, %d workers: refolded kept state %+v, first fill's %+v", n, workers, k, w)
			}
		}
	}
}
