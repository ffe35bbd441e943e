package view

import (
	"fmt"
	"math"
	"testing"

	"statdb/internal/dataset"
	"statdb/internal/dbmachine"
	"statdb/internal/exec"
	"statdb/internal/obs"
	"statdb/internal/relalg"
	"statdb/internal/rules"
	"statdb/internal/shard"
	"statdb/internal/summary"
)

// The differential harness for the aggregate table: every built-in ×
// every input form × every column shape must agree with the serial
// reference (the stats/desc.go operator the table row names) under the
// engine's doctrine:
//
//   - order-insensitive functions (count min max median q1 q3 mode
//     unique) are bit-identical across forms;
//   - moment functions (sum mean variance sd) fold the same observations
//     in a different grouping, and must land within mergedUlps units in
//     the last place of the column's scale (Σ|x| for sum, max|x| for
//     mean, max|x|² for variance; sd is compared squared, as a variance)
//     for the merged-state forms — pool, runs, shard gather, database
//     machine — and within incrRel of it for incremental maintenance,
//     whose (n, Σx, Σx²) variance cancels where Welford's M2 does not;
//   - a degenerate column fails or answers the same way through every
//     form, with the same error text.
const (
	mergedUlps = 4096
	incrRel    = 1e-9
)

var exactFns = map[string]bool{
	"count": true, "min": true, "max": true, "median": true,
	"q1": true, "q3": true, "mode": true, "unique": true,
}

// shape is one test column.
type shape struct {
	name  string
	xs    []float64
	valid []bool
}

// aggLCG is the harness's deterministic generator.
type aggLCG uint64

func (g *aggLCG) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g >> 11)
}

// shapes builds the seven column shapes at n rows (empty stays empty).
func shapes(n int) []shape {
	g := aggLCG(12)
	mk := func(name string, rows int, val func(i int) (float64, bool)) shape {
		s := shape{name: name, xs: make([]float64, rows), valid: make([]bool, rows)}
		for i := range s.xs {
			s.xs[i], s.valid[i] = val(i)
		}
		return s
	}
	float := func() float64 { return float64(g.next()%2000000)/1000 - 1000 }
	return []shape{
		mk("empty", 0, nil),
		mk("one value", n, func(i int) (float64, bool) { return 7.25, i == n/2 }),
		mk("all-missing", n, func(int) (float64, bool) { return 0, false }),
		mk("with-missing", n, func(i int) (float64, bool) { return float(), i%7 != 3 }),
		mk("constant", n, func(int) (float64, bool) { return 3.14159, true }),
		mk("float", n, func(int) (float64, bool) { return float(), true }),
		mk("integer-coded", n, func(i int) (float64, bool) { return float64((i / 400 % 9) * 25), i%379 != 0 }),
	}
}

// answer is one form's result for one function.
type answer struct {
	v   float64
	err error
}

// check compares got to the serial reference want under the doctrine.
func (s shape) check(t *testing.T, form, fn string, got, want answer, rel float64) {
	t.Helper()
	if (got.err == nil) != (want.err == nil) || (got.err != nil && got.err.Error() != want.err.Error()) {
		t.Errorf("%s/%s/%s: err %v, serial err %v", s.name, form, fn, got.err, want.err)
		return
	}
	if got.err != nil {
		return
	}
	if exactFns[fn] {
		if math.Float64bits(got.v) != math.Float64bits(want.v) {
			t.Errorf("%s/%s/%s: %v != serial %v (must be bit-identical)", s.name, form, fn, got.v, want.v)
		}
		return
	}
	var sumAbs, maxAbs float64
	for i, x := range s.xs {
		if s.valid[i] {
			sumAbs += math.Abs(x)
			maxAbs = math.Max(maxAbs, math.Abs(x))
		}
	}
	g, w, scale := got.v, want.v, maxAbs
	switch fn {
	case "sum":
		scale = sumAbs
	case "variance":
		scale = maxAbs * maxAbs
	case "sd":
		g, w, scale = g*g, w*w, maxAbs*maxAbs
	}
	if math.Abs(g-w) > rel*scale {
		t.Errorf("%s/%s/%s: %v vs serial %v: off by %g, bound %g", s.name, form, fn, got.v, want.v, math.Abs(g-w), rel*scale)
	}
}

func (s shape) source() summary.Source {
	return func() ([]float64, []bool) { return s.xs, s.valid }
}

// runs run-length encodes the column the way colstore's RLE pages do.
func (s shape) runs() exec.RunColumn {
	rc := exec.RunColumn{Rows: len(s.xs)}
	for i, x := range s.xs {
		null := !s.valid[i]
		if k := len(rc.Vals) - 1; k >= 0 && rc.Nulls[k] == null && (null || rc.Vals[k] == x) {
			rc.Counts[k]++
			continue
		}
		rc.Vals = append(rc.Vals, x)
		rc.Nulls = append(rc.Nulls, null)
		rc.Counts = append(rc.Counts, 1)
	}
	return rc
}

func (s shape) dataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds := dataset.New(dataset.MustSchema(
		dataset.Attribute{Name: "ID", Kind: dataset.KindInt, Category: true},
		dataset.Attribute{Name: "X", Kind: dataset.KindFloat, Summarizable: true},
	))
	for i, x := range s.xs {
		v := dataset.Null
		if s.valid[i] {
			v = dataset.Float(x)
		}
		if err := ds.Append(dataset.Row{dataset.Int(int64(i)), v}); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func (s shape) view(t *testing.T, opts Options) *View {
	t.Helper()
	v, err := New(s.dataset(t), rules.NewManagementDB(), rules.ViewDef{
		Name: "agg", Analyst: "a", Source: "raw", Ops: []string{"all"},
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// all asks one form for every built-in.
func all(ask func(fn string) (float64, error)) map[string]answer {
	out := map[string]answer{}
	for _, fn := range summary.Functions() {
		v, err := ask(fn)
		out[fn] = answer{v, err}
	}
	return out
}

// TestAggregateForms drives each input form's real caller of the table
// over columns long enough to engage the pool and give every shard
// chunks of its own.
func TestAggregateForms(t *testing.T) {
	const rel = mergedUlps * 0x1p-52
	for _, s := range shapes(2*summary.ParallelThreshold + 17) {
		serial := summary.NewDB(rules.NewManagementDB())
		want := all(func(fn string) (float64, error) { return serial.Scalar(fn, "X", s.source()) })
		forms := map[string]map[string]answer{}

		pool := summary.NewDB(rules.NewManagementDB())
		reg := pool.Metrics()
		pool.SetExec(exec.New(4), 0)
		forms["pool"] = all(func(fn string) (float64, error) { return pool.Scalar(fn, "X", s.source()) })
		if got := reg.Counter(obs.MSummaryRecomputeParallel).Value(); len(s.xs) > 0 && got != int64(len(want)) {
			t.Errorf("%s: %d of %d pool computes took the parallel engine", s.name, got, len(want))
		}

		runs := summary.NewDB(rules.NewManagementDB())
		rc := s.runs()
		forms["runs"] = all(func(fn string) (float64, error) {
			return runs.ScalarFrom(fn, "X", summary.Sources{
				Rows: func() ([]float64, []bool) { t.Errorf("%s/runs/%s read rows", s.name, fn); return nil, nil },
				Runs: func() (exec.RunColumn, bool) { return rc, true },
			})
		})

		for _, k := range []int{1, 2, 4} {
			v := s.view(t, Options{})
			sreg := obs.NewRegistry()
			st, err := shard.New("agg", v.Dataset(), shard.Config{Shards: k, Registry: sreg})
			if err != nil {
				t.Fatal(err)
			}
			v.AttachShards(st)
			form := fmt.Sprintf("%d-shard gather", k)
			forms[form] = all(func(fn string) (float64, error) {
				val, rep, err := v.ComputeReport(fn, "X")
				if rep.Shards != k || rep.Degraded() {
					t.Errorf("%s/%s/%s: report %+v, want a healthy %d-shard gather", s.name, form, fn, rep, k)
				}
				return val, err
			})
			if got := sreg.Counter(obs.MShardScatters).Value(); got != int64(len(want)) {
				t.Errorf("%s/%s: %d scatters for %d functions", s.name, form, got, len(want))
			}
			if p := v.Summary().Counters().Passes; p != int64(len(want)) {
				t.Errorf("%s/%s: %d passes for %d functions", s.name, form, p, len(want))
			}
		}

		m, err := dbmachine.New(dbmachine.Config{Processors: 3, RowProcessCost: 1, RowShipCost: 1})
		if err != nil {
			t.Fatal(err)
		}
		forms["dbmachine"] = map[string]answer{}
		for fn, kind := range map[string]dbmachine.AggregateKind{
			"sum": dbmachine.AggSum, "min": dbmachine.AggMin, "max": dbmachine.AggMax, "count": dbmachine.AggCount,
		} {
			val, _, err := m.Aggregate(kind, s.xs, s.valid)
			forms["dbmachine"][fn] = answer{val, err}
		}

		for form, answers := range forms {
			for fn, got := range answers {
				s.check(t, form, fn, got, want[fn], rel)
			}
		}
	}
}

// TestAggregateMaintenance is the update-delta input form: after every
// step of a seeded insert / delete / update sequence — including
// deleting the last copy of the minimum and of the maximum, which
// defeats the extremum maintainers and forces a rebuild, deleting every
// copy of the current mode, writing values the column never held, and
// emptying the column — each cached built-in must equal the serial
// reference over the updated column. From the second update on, mode and
// unique are maintained from the retained frequency table and must be
// fresh the moment an update returns.
//
// The with-NaNs column holds what `import` can parse. The serial
// operators and the frequency forms count a NaN differently, and this
// harness does not decide between them: there only mode and unique are
// checked, maintained against recomputed through the same form — the
// frequency table folded from the updated column.
func TestAggregateMaintenance(t *testing.T) {
	const n = 257
	g := aggLCG(12)
	nans := shape{name: "with-NaNs", xs: make([]float64, n), valid: make([]bool, n)}
	for i := range nans.xs {
		nans.xs[i], nans.valid[i] = float64(g.next()%40)/8, i%11 != 5
		if i%9 == 2 {
			nans.xs[i] = math.NaN()
		}
	}
	for _, s := range append(shapes(n), nans) {
		v := s.view(t, Options{})
		g := aggLCG(99)
		update := func(pred relalg.Predicate, val dataset.Value) {
			t.Helper()
			if _, err := v.UpdateWhere("X", pred, val); err != nil {
				t.Fatal(err)
			}
		}
		set := func(r int, val dataset.Value) {
			t.Helper()
			update(relalg.Cmp{Attr: "ID", Op: relalg.Eq, Val: dataset.Int(int64(r))}, val)
		}
		// column mirrors the view's rows of record into the shape, so
		// check scales its bounds by the current data.
		column := func() shape {
			xs, valid, err := v.Dataset().NumericByName("X")
			if err != nil {
				t.Fatal(err)
			}
			return shape{name: s.name, xs: xs, valid: valid}
		}
		fromTable := func(cur shape, fn string) answer {
			val, err := summary.Finalize(fn, summary.State{Freq: exec.FoldFreq(cur.xs, cur.valid)})
			return answer{val, err}
		}
		verify := func(step string) {
			t.Helper()
			cur := column()
			if s.name == nans.name {
				for _, fn := range []string{"mode", "unique"} {
					got, gerr := v.Compute(fn, "X")
					cur.check(t, "maintenance "+step, fn, answer{got, gerr}, fromTable(cur, fn), 0)
				}
				return
			}
			// Once every observation is deleted the moment maintainers' running
			// sums keep a rounding residue (incr's algebra, ROADMAP 1b) that a
			// bound relative to an empty column's scale cannot admit.
			empty := true
			for _, ok := range cur.valid {
				empty = empty && !ok
			}
			ref := summary.NewDB(rules.NewManagementDB())
			for _, fn := range summary.Functions() {
				if empty && !exactFns[fn] {
					continue
				}
				got, gerr := v.Compute(fn, "X")
				want, werr := ref.Scalar(fn, "X", cur.source())
				cur.check(t, "maintenance "+step, fn, answer{got, gerr}, answer{want, werr}, incrRel)
			}
		}
		// Every copy of val goes missing: in one batch, or — no predicate
		// matches a NaN — cell by cell.
		deleteAll := func(val float64) {
			t.Helper()
			if val == val {
				update(relalg.Cmp{Attr: "X", Op: relalg.Eq, Val: dataset.Float(val)}, dataset.Null)
				return
			}
			for r, x := range column().xs {
				if x != x {
					set(r, dataset.Null)
				}
			}
		}
		extremum := func(fn string) (float64, bool) {
			cur := column()
			best, at := 0.0, -1
			for i, x := range cur.xs {
				if cur.valid[i] && (at < 0 || (fn == "min" && x < best) || (fn == "max" && x > best)) {
					best, at = x, i
				}
			}
			return best, at >= 0
		}

		if s.name == nans.name {
			// The first miss answers through the serial operator; asking
			// installs the entries the sequence then maintains.
			for _, fn := range []string{"mode", "unique"} {
				if _, err := v.Compute(fn, "X"); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			verify("initial") // installs every maintainer and window
		}
		for step := 0; step < 75 && len(s.xs) > 0; step++ {
			// The verify after the first update refilled unique and retained
			// the table.
			maintained := v.History().Len() > 0
			r := int(g.next() % uint64(len(s.xs)))
			switch step % 5 {
			case 0: // delete
				set(r, dataset.Null)
			case 1, 2: // insert into a hole, or update in place
				set(r, dataset.Float(float64(g.next()%4000)/4-500))
			case 3: // delete every copy of an extremum
				fn := "min"
				if step%10 == 8 {
					fn = "max"
				}
				if x, ok := extremum(fn); ok {
					deleteAll(x)
				}
			case 4: // delete every copy of the current mode
				if m := fromTable(column(), "mode"); m.err == nil {
					deleteAll(m.v)
				}
			}
			if _, fresh := v.Summary().Lookup("unique", "X"); maintained && !fresh {
				t.Errorf("%s step %d: unique is stale after the update; the retained table did not maintain it", s.name, step)
			}
			verify(fmt.Sprintf("step %d", step))
		}
		if len(s.xs) > 0 {
			update(relalg.All{}, dataset.Null)
			verify("emptied")
			set(n/2, dataset.Float(0.375)) // a value no shape holds
			verify("first value into the empty column")
			for v.History().Len() > 0 {
				if err := v.Undo(); err != nil {
					t.Fatal(err)
				}
			}
			verify("everything undone")
		}
		c := v.Summary().Counters()
		if s.name == "float" && (c.Incremental == 0 || c.Slides == 0 || c.Rebuilds == 0) {
			t.Errorf("%s: counters %+v: the sequence never exercised incremental, window and rebuild maintenance", s.name, c)
		}
	}
}
