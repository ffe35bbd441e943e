package summary

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"statdb/internal/exec"
	"statdb/internal/incr"
	"statdb/internal/obs"
	"statdb/internal/storage"
)

// Tests of the frequency table's delta form and of the retention rule
// every kept state follows. They read the kept-state map through
// keptStates — the probe the retention rule is stated in — rather than
// through an exported accessor.

// nullable is a column with missing cells whose updates are deltas.
type nullable struct {
	xs     []float64
	valid  []bool
	passes int
	broken bool // while set, every read through rows or runs fails
}

func (c *nullable) source() func() ([]float64, []bool) {
	return func() ([]float64, []bool) {
		c.passes++
		return c.xs, c.valid
	}
}

// errRead is what a broken column's reads return.
var errRead = errors.New("summary test: column read failed")

// rows is source as a Source that fails while c is broken.
func (c *nullable) rows() Source {
	return func() ([]float64, []bool, error) {
		if c.broken {
			return nil, nil, errRead
		}
		c.passes++
		return c.xs, c.valid, nil
	}
}

// runs reads the column as it is when called as a run column of one-row
// runs, failing while c is broken.
func (c *nullable) runs() (exec.RunColumn, error) {
	if c.broken {
		return exec.RunColumn{}, errRead
	}
	rc := exec.RunColumn{Rows: len(c.xs)}
	for i, x := range c.xs {
		rc.Vals, rc.Nulls, rc.Counts = append(rc.Vals, x), append(rc.Nulls, !c.valid[i]), append(rc.Counts, 1)
	}
	return rc, nil
}

// set writes (x, ok) to row i and returns the delta that did it.
func (c *nullable) set(i int, x float64, ok bool) incr.Delta {
	d := incr.Delta{Delete: c.valid[i], Old: c.xs[i], Insert: ok, New: x}
	c.xs[i], c.valid[i] = x, ok
	return d
}

// retained builds a column of n cells over a small value domain (NaN
// among the values, some cells missing) and a DB that has been through
// miss → update → refill on it, so X's table is retained.
func retained(t *testing.T, n int, rng *rand.Rand) (*DB, *nullable) {
	t.Helper()
	c := &nullable{xs: make([]float64, n), valid: make([]bool, n)}
	for i := range c.xs {
		c.xs[i], c.valid[i] = draw(rng)
	}
	db, _ := newDB()
	ask(t, db, c, "mode")
	db.OnUpdate("X", []incr.Delta{c.set(0, 3, true)})
	ask(t, db, c, "mode")
	if keptStates(db, freqState)["X"] == nil {
		t.Fatal("the refill of an entry an update left stale retained no table")
	}
	return db, c
}

// keptStates is the one probe of the kept-state map: the states of kind s
// the DB keeps, by attribute.
func keptStates(db *DB, s stateKind) map[string]*kept {
	out := map[string]*kept{}
	for key, k := range db.kept {
		if key.state == s {
			out[key.attr] = k
		}
	}
	return out
}

// tableOf is a kept table's kept form.
func tableOf(k *kept) exec.FreqTable { return *k.val.(*exec.FreqTable) }

// draw picks a cell: one of 12 numbers, −0, a NaN, or missing.
func draw(rng *rand.Rand) (float64, bool) {
	switch k := rng.Intn(15); k {
	case 12:
		return math.NaN(), true
	case 13:
		return 0, false
	case 14:
		return math.Copysign(0, -1), true
	default:
		return float64(k) / 4, true
	}
}

// ask is db.Scalar over c, tolerating only the no-data answer.
func ask(t *testing.T, db *DB, c *nullable, fn string) float64 {
	t.Helper()
	v, err := db.Scalar(fn, "X", c.source())
	if err != nil && err.Error() != "stats: no valid observations" {
		t.Fatalf("%s: %v", fn, err)
	}
	return v
}

func sameTable(a, b exec.FreqTable) bool {
	if len(a.Values) != len(b.Values) || len(a.Counts) != len(b.Counts) {
		return false
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) || a.Counts[i] != b.Counts[i] {
			return false
		}
	}
	return true
}

// TestTableMergeMatchesRebuild: merging a random signed batch — rows hit
// twice, so the batch carries duplicates and cancelling insert/delete
// pairs, deletes to missing, inserts into holes, NaNs — leaves exactly
// the table a fold over the updated column builds, and mode and unique
// are hits that equal its finalizers.
func TestTableMergeMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db, c := retained(t, 40+rng.Intn(40), rng)
		ask(t, db, c, "unique")
		passes := c.passes
		for round := 0; round < 3; round++ {
			batch := make([]incr.Delta, 1+rng.Intn(30))
			for k := range batch {
				x, ok := draw(rng)
				batch[k] = c.set(rng.Intn(len(c.xs)), x, ok)
			}
			db.OnUpdate("X", batch)
			want := exec.FoldFreq(c.xs, c.valid)
			got := keptStates(db, freqState)["X"]
			if got == nil || !sameTable(tableOf(got), want) {
				t.Fatalf("seed %d round %d: merged table %v, rebuilt %v", seed, round, got, want)
			}
			for _, fn := range []string{"mode", "unique"} {
				wantV, werr := Finalize(fn, State{Freq: want})
				r, fresh := db.Lookup(fn, "X")
				if fresh != (werr == nil) || (fresh && math.Float64bits(r.Scalar) != math.Float64bits(wantV)) {
					t.Fatalf("seed %d round %d: %s maintained %v (fresh %v), recomputed %v (%v)", seed, round, fn, r.Scalar, fresh, wantV, werr)
				}
			}
		}
		if c.passes != passes {
			t.Fatalf("seed %d: maintenance read the column %d times", seed, c.passes-passes)
		}
	}
}

// TestZeroSignMaintainedAsRecomputed: the sign of a zero answer does
// not depend on the column's history. Filling the missing cells of a
// column with −0, then turning its +0s to −0 one batch at a time, leaves
// mode (from the maintained table), median, q1 and q3 (from their
// windows) and min and max (from the kept moments) answering what a
// fresh DB's fill over the updated column answers — +0, the zero a table
// holds — bit for bit. The column runs once upward and once mirrored, so
// that the zero is its min once and its max once.
func TestZeroSignMaintainedAsRecomputed(t *testing.T) {
	fns := []string{"mode", "median", "q1", "q3", "min", "max"}
	for _, dir := range []float64{1, -1} {
		c := &nullable{
			xs:    []float64{0, 0, 0, 0, 0, 0, 0, 5 * dir, 7 * dir},
			valid: []bool{true, true, true, false, false, false, false, true, true},
		}
		db, _ := newDB()
		for _, fn := range fns {
			ask(t, db, c, fn)
		}
		for _, rows := range [][]int{{3, 4, 5, 6}, {0}, {1, 2}} {
			batch := make([]incr.Delta, len(rows))
			for k, i := range rows {
				batch[k] = c.set(i, math.Copysign(0, -1), true)
			}
			db.OnUpdate("X", batch)
			fresh, _ := newDB()
			for _, fn := range fns {
				want := ask(t, fresh, &nullable{xs: c.xs, valid: c.valid}, fn)
				r, ok := db.Lookup(fn, "X")
				if !ok || math.Float64bits(r.Scalar) != math.Float64bits(want) || want == 0 && math.Signbit(want) {
					t.Errorf("column ×%v, after −0 in rows %v: %s maintained %v (signbit %v, fresh %v), recomputed %v (signbit %v)",
						dir, rows, fn, r.Scalar, math.Signbit(r.Scalar), ok, want, math.Signbit(want))
				}
			}
		}
	}
}

// TestTableDeleteOfAbsent: a delete the table cannot account for leaves
// it unable to describe the column. While mode and unique read it, the
// update refolds it from the column — one pass, counted as a rebuild — as
// it refolds kept moments a batch defeats, and the entries stay fresh:
// the next access is a hit that reads no column.
func TestTableDeleteOfAbsent(t *testing.T) {
	db, c := retained(t, 60, rand.New(rand.NewSource(1)))
	ask(t, db, c, "unique")
	passes, rebuilds := c.passes, db.Counters().Rebuilds
	db.OnUpdate("X", []incr.Delta{{Delete: true, Old: 12345}})
	k := keptStates(db, freqState)["X"]
	if k == nil || !k.maintained || !sameTable(tableOf(k), exec.FoldFreq(c.xs, c.valid)) {
		t.Fatalf("a delete of an absent value left table %v, want the column's refold, maintained", k)
	}
	if c.passes != passes+1 || db.Counters().Rebuilds != rebuilds+1 {
		t.Errorf("the refold took %d passes and %d rebuilds, want one of each",
			c.passes-passes, db.Counters().Rebuilds-rebuilds)
	}
	hits := db.Counters().Hits
	for _, fn := range []string{"mode", "unique"} {
		want, _ := Finalize(fn, State{Freq: exec.FoldFreq(c.xs, c.valid)})
		if got := ask(t, db, c, fn); got != want {
			t.Errorf("%s after the refold = %v, want %v", fn, got, want)
		}
	}
	if c.passes != passes+1 || db.Counters().Hits != hits+2 {
		t.Errorf("mode and unique after the refold: %d more passes, %d hits; want none and two",
			c.passes-passes-1, db.Counters().Hits-hits)
	}
}

// TestTableRetentionRule: what does and does not leave a table behind.
func TestTableRetentionRule(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	fresh := func() *nullable {
		c := &nullable{xs: make([]float64, 50), valid: make([]bool, 50)}
		for i := range c.xs {
			c.xs[i], c.valid[i] = draw(rng)
		}
		return c
	}

	// A first miss keeps its table cold while another freq row of the
	// attribute is uncached, serves those rows from it with no pass, and
	// lets it go once the last of them is cached.
	db, _ := newDB()
	c := fresh()
	ask(t, db, c, "mode")
	if k := keptStates(db, freqState)["X"]; k == nil || k.maintained {
		t.Fatalf("a first miss kept %v, want a cold table", k)
	}
	passes := c.passes
	for _, fn := range []string{"unique", "median", "q1", "count", "sd"} {
		ask(t, db, c, fn)
	}
	if c.passes != passes || keptStates(db, freqState)["X"] == nil {
		t.Errorf("fills beside a cold table read the column %d times", c.passes-passes)
	}
	ask(t, db, c, "q3")
	if len(keptStates(db, freqState)) != 0 || db.coldBytes != 0 {
		t.Errorf("the last freq row left %d tables (%d cold bytes) behind", len(keptStates(db, freqState)), db.coldBytes)
	}

	// An update drops a cold table no cached row reads: mean's read kept
	// one, and mode is not cached to be kept current from it.
	db, _ = newDB()
	c = fresh()
	ask(t, db, c, "mean")
	if keptStates(db, freqState)["X"] == nil {
		t.Fatal("mean's read kept no cold table")
	}
	db.OnUpdate("X", []incr.Delta{c.set(1, 2, true)})
	if len(keptStates(db, freqState)) != 0 || db.coldBytes != 0 {
		t.Errorf("an update maintained a table no cached row reads (%d cold bytes)", db.coldBytes)
	}

	// Only the per-function policy keeps states.
	for _, p := range []Policy{PolicyInvalidateAll, PolicyRecomputeAll} {
		db, _ := newDB()
		db.SetPolicy(p)
		c := fresh()
		ask(t, db, c, "mode")
		db.OnUpdate("X", []incr.Delta{c.set(1, 2, true)})
		ask(t, db, c, "mode")
		if len(keptStates(db, freqState)) != 0 || len(keptStates(db, momentsState)) != 0 {
			t.Errorf("%v kept %d tables and %d moments", p, len(keptStates(db, freqState)), len(keptStates(db, momentsState)))
		}
	}

	// An update makes the table maintained: every tabled fill is served
	// from it — unique, never asked before, reads no column — and it
	// outlives the last freq row's fill.
	db, c = retained(t, 50, rng)
	passes = c.passes
	want, _ := Finalize("unique", State{Freq: exec.FoldFreq(c.xs, c.valid)})
	if got := ask(t, db, c, "unique"); got != want || c.passes != passes {
		t.Errorf("unique beside a live table = %v after %d passes, want %v after none", got, c.passes-passes, want)
	}
	for _, fn := range []string{"median", "q1", "q3"} {
		ask(t, db, c, fn)
	}
	if k := keptStates(db, freqState)["X"]; k == nil || !k.maintained || db.coldBytes != 0 {
		t.Errorf("the maintained table became %v (%d cold bytes)", k, db.coldBytes)
	}

	// Invalidate drops it, so does leaving the per-function policy, and a
	// Save → Load round trip carries none over.
	db.Invalidate("X")
	if len(keptStates(db, freqState)) != 0 {
		t.Error("Invalidate left the table behind")
	}
	db, _ = retained(t, 50, rng)
	db.SetPolicy(PolicyInvalidateAll)
	if len(keptStates(db, freqState)) != 0 {
		t.Error("SetPolicy left the table behind")
	}
	db, _ = retained(t, 50, rng)
	heap := NewSummaryHeapFile(storage.NewBufferPool(storage.NewMemDevice(storage.DefaultDiskCost()), 16))
	if err := db.Save(heap); err != nil {
		t.Fatal(err)
	}
	restored := NewDB(db.mdb)
	if _, err := Load(restored, heap); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != db.Len() || len(keptStates(restored, freqState)) != 0 {
		t.Errorf("Load restored %d of %d entries and %d tables, want none", restored.Len(), db.Len(), len(keptStates(restored, freqState)))
	}
}

// TestTableNotRetainedOverBudget: a refill whose fold runs the query over
// budget installs neither its result nor the table it built. Every freq
// row is cached first, so no cold table outlives the first fills and the
// update leaves mode stale.
func TestTableNotRetainedOverBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := &nullable{xs: make([]float64, 200), valid: make([]bool, 200)}
	for i := range c.xs {
		c.xs[i], c.valid[i] = draw(rng)
	}
	db, _ := newDB()
	tr := obs.NewTracer()
	db.SetTracer(tr)
	for _, fn := range []string{"mode", "unique", "median", "q1", "q3"} {
		ask(t, db, c, fn)
	}
	db.OnUpdate("X", []incr.Delta{c.set(0, 3, true)})

	tr.SetBudget(obs.NewBudget(50, 0)) // the fold charges one tick a row
	root := tr.Begin("query")
	_, err := db.Scalar("mode", "X", c.source())
	root.End()
	if err == nil {
		t.Fatal("refill over budget answered")
	}
	if _, ok := db.Lookup("mode", "X"); ok || len(keptStates(db, freqState)) != 0 {
		t.Errorf("breached refill left a fresh entry (%v) or %d tables", ok, len(keptStates(db, freqState)))
	}
	tr.SetBudget(nil)
	ask(t, db, c, "mode")
	if keptStates(db, freqState)["X"] == nil {
		t.Error("the refill within budget retained nothing")
	}
}

// benchColumn is the statement benchmark's shape: 200 000 rows of
// 3-decimal floats, ≈70 000 distinct.
func benchColumn() *nullable {
	rng := rand.New(rand.NewSource(1))
	c := &nullable{xs: make([]float64, 200_000), valid: make([]bool, 200_000)}
	for i := range c.xs {
		c.xs[i], c.valid[i] = math.Round(rng.NormFloat64()*15_000)/1000, true
	}
	return c
}

// BenchmarkColdAttributeFill times all twelve built-ins asked of a fresh
// attribute of benchColumn's shape on a two-worker pool: one read that
// folds and keeps the moments and the table, then eleven fills finalized
// from the kept states.
func BenchmarkColdAttributeFill(b *testing.B) {
	c := benchColumn()
	pool := exec.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, _ := newDB()
		db.SetExec(pool)
		for _, fn := range Functions() {
			if _, err := db.Scalar(fn, "X", c.source()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if c.passes != b.N {
		b.Fatalf("%d column passes for %d cold attributes, want one each", c.passes, b.N)
	}
}

// benchOnUpdate times one update's maintenance of fns over benchColumn:
// a 2 000-delta batch applied forward, then back. The set-up
// asks each function, updates forth and back, and asks again, so every
// state fns are maintained from is in place before the clock starts; the
// timed updates must then leave every entry fresh without a column pass.
func benchOnUpdate(b *testing.B, fns ...string) {
	c := benchColumn()
	db, _ := newDB()
	db.SetExec(exec.New(2))
	fwd, back := make([]incr.Delta, 2000), make([]incr.Delta, 2000)
	for k := range fwd {
		i := k * 100
		fwd[k], back[len(back)-1-k] = incr.UpdateOf(c.xs[i], 42.5), incr.UpdateOf(42.5, c.xs[i])
	}
	ask := func() {
		for _, fn := range fns {
			if _, err := db.Scalar(fn, "X", c.source()); err != nil {
				b.Fatal(err)
			}
		}
	}
	ask()
	db.OnUpdate("X", fwd)
	db.OnUpdate("X", back)
	ask()
	passes := c.passes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.OnUpdate("X", fwd)
		db.OnUpdate("X", back)
	}
	b.StopTimer()
	for _, fn := range fns {
		if _, ok := db.Lookup(fn, "X"); !ok || c.passes != passes {
			b.Fatalf("%s fresh = %v after %d more passes: maintenance fell back to the column", fn, ok, c.passes-passes)
		}
	}
}

// BenchmarkOnUpdateFreq maintains mode and unique from the retained
// frequency table.
func BenchmarkOnUpdateFreq(b *testing.B) { benchOnUpdate(b, "mode", "unique") }

// BenchmarkOnUpdateMoments maintains the seven moments rows from the
// kept moments.
func BenchmarkOnUpdateMoments(b *testing.B) {
	benchOnUpdate(b, "count", "sum", "mean", "variance", "sd", "min", "max")
}

// TestColdTablesWithinBudget: cold tables share coldTableBudget, the
// least recently used leaving first, and one larger than the budget is
// not kept at all.
func TestColdTablesWithinBudget(t *testing.T) {
	distinct := func(n int) *nullable {
		c := &nullable{xs: make([]float64, n), valid: make([]bool, n)}
		for i := range c.xs {
			c.xs[i], c.valid[i] = float64(i), true
		}
		return c
	}
	db, _ := newDB()
	cols := map[string]*nullable{"X1": distinct(50_000), "X2": distinct(50_000), "X3": distinct(50_000)}
	scalar := func(fn, attr string) {
		t.Helper()
		if _, err := db.Scalar(fn, attr, cols[attr].source()); err != nil {
			t.Fatal(err)
		}
	}
	scalar("mode", "X1")
	scalar("mode", "X2")
	scalar("unique", "X1") // served from X1's table, which is now the fresher
	if p := cols["X1"].passes; p != 1 {
		t.Errorf("unique beside X1's cold table read the column (%d passes)", p)
	}
	scalar("mode", "X3")
	if keptStates(db, freqState)["X1"] == nil || keptStates(db, freqState)["X2"] != nil || keptStates(db, freqState)["X3"] == nil {
		t.Errorf("after a third table, X1 kept %v, X2 %v, X3 %v; want X2 evicted",
			keptStates(db, freqState)["X1"] != nil, keptStates(db, freqState)["X2"] != nil, keptStates(db, freqState)["X3"] != nil)
	}
	if want := states[freqState].bytes(keptStates(db, freqState)["X1"].val) + states[freqState].bytes(keptStates(db, freqState)["X3"].val); db.coldBytes != want || want > coldTableBudget {
		t.Errorf("cold bytes %d, want %d within %d", db.coldBytes, want, coldTableBudget)
	}
	cols["X4"] = distinct(coldTableBudget/16 + 1)
	scalar("mode", "X4")
	if keptStates(db, freqState)["X4"] != nil {
		t.Error("a table larger than the budget was kept")
	}

	// The stale refill of a row that does not finalize from the table
	// (mean, median) keeps the table its read folded cold: inside the
	// budget, and let go once every freq row is cached again.
	cols["X5"] = distinct(1000)
	for _, fn := range Functions() {
		scalar(fn, "X5")
	}
	db.Invalidate("X5")
	for _, fn := range []string{"mean", "median"} {
		scalar(fn, "X5")
		k := keptStates(db, freqState)["X5"]
		if k == nil || k.maintained {
			t.Fatalf("after the refill of a stale %s, X5 kept a table %v, maintained %v; want one kept cold",
				fn, k != nil, k != nil && k.maintained)
		}
		if want := states[freqState].bytes(keptStates(db, freqState)["X1"].val) + states[freqState].bytes(keptStates(db, freqState)["X3"].val) + states[freqState].bytes(k.val); db.coldBytes != want || want > coldTableBudget {
			t.Errorf("after the refill of a stale %s, cold bytes %d, want %d within %d", fn, db.coldBytes, want, coldTableBudget)
		}
	}
	for _, fn := range []string{"q1", "q3", "mode", "unique"} {
		scalar(fn, "X5")
	}
	if keptStates(db, freqState)["X5"] != nil {
		t.Error("X5's refilled table outlived the last freq row it serves")
	}
}
