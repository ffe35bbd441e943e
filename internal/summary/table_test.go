package summary

import (
	"math"
	"math/rand"
	"testing"

	"statdb/internal/exec"
	"statdb/internal/incr"
	"statdb/internal/obs"
	"statdb/internal/storage"
)

// Tests of the freq family's delta form: the retained frequency table.
// They read db.tables directly — the probe the retention rule is stated
// in — rather than through an exported accessor.

// nullable is a column with missing cells whose updates are deltas.
type nullable struct {
	xs     []float64
	valid  []bool
	passes int
}

func (c *nullable) source() Source {
	return func() ([]float64, []bool) {
		c.passes++
		return c.xs, c.valid
	}
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
	if db.tables["X"] == nil {
		t.Fatal("the refill of an entry an update left stale retained no table")
	}
	return db, c
}

// draw picks a cell: one of 12 numbers, a NaN, or missing.
func draw(rng *rand.Rand) (float64, bool) {
	switch k := rng.Intn(14); k {
	case 12:
		return math.NaN(), true
	case 13:
		return 0, false
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
			want := exec.FoldFreq(c.xs, c.valid).Table()
			got := db.tables["X"]
			if got == nil || !sameTable(*got, want) {
				t.Fatalf("seed %d round %d: merged table %v, rebuilt %v", seed, round, got, want)
			}
			for _, fn := range []string{"mode", "unique"} {
				wantV, werr := aggregateByName[fn].freq(want)
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

// TestTableDeleteOfAbsent: a delete the table cannot account for drops it
// and leaves its entries stale; the next access refills from the column
// and retains again.
func TestTableDeleteOfAbsent(t *testing.T) {
	db, c := retained(t, 60, rand.New(rand.NewSource(1)))
	ask(t, db, c, "unique")
	db.OnUpdate("X", []incr.Delta{incr.DeleteOf(12345)})
	if db.tables["X"] != nil {
		t.Error("a delete of an absent value left the table in place")
	}
	for _, fn := range []string{"mode", "unique"} {
		if _, ok := db.Lookup(fn, "X"); ok {
			t.Errorf("%s still fresh after its table was dropped", fn)
		}
	}
	passes := c.passes
	ask(t, db, c, "unique")
	ask(t, db, c, "mode")
	if c.passes != passes+1 || db.tables["X"] == nil {
		t.Errorf("refill after the drop: %d passes, table %v; want one pass that retains", c.passes-passes, db.tables["X"])
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

	// A first miss retains nothing, whichever function asks.
	db, _ := newDB()
	c := fresh()
	ask(t, db, c, "mode")
	ask(t, db, c, "unique")
	if len(db.tables) != 0 {
		t.Error("a first miss retained a table")
	}

	// Only the per-function policy maintains per-function state.
	for _, p := range []Policy{PolicyInvalidateAll, PolicyRecomputeAll} {
		db, _ := newDB()
		db.SetPolicy(p)
		c := fresh()
		ask(t, db, c, "mode")
		db.OnUpdate("X", []incr.Delta{c.set(1, 2, true)})
		ask(t, db, c, "mode")
		if len(db.tables) != 0 {
			t.Errorf("%v retained a table", p)
		}
	}

	// While the table lives every tabled fill is served from it: unique,
	// never asked before, reads no column.
	db, c = retained(t, 50, rng)
	passes := c.passes
	want, _ := aggregateByName["unique"].freq(exec.FoldFreq(c.xs, c.valid).Table())
	if got := ask(t, db, c, "unique"); got != want || c.passes != passes {
		t.Errorf("unique beside a live table = %v after %d passes, want %v after none", got, c.passes-passes, want)
	}

	// Invalidate drops it, so does leaving the per-function policy, and a
	// Save → Load round trip carries none over.
	db.Invalidate("X")
	if len(db.tables) != 0 {
		t.Error("Invalidate left the table behind")
	}
	db, _ = retained(t, 50, rng)
	db.SetPolicy(PolicyInvalidateAll)
	if len(db.tables) != 0 {
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
	if restored.Len() != db.Len() || len(restored.tables) != 0 {
		t.Errorf("Load restored %d of %d entries and %d tables, want none", restored.Len(), db.Len(), len(restored.tables))
	}
}

// TestTableNotRetainedOverBudget: a refill whose fold runs the query over
// budget installs neither its result nor the table it built.
func TestTableNotRetainedOverBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := &nullable{xs: make([]float64, 200), valid: make([]bool, 200)}
	for i := range c.xs {
		c.xs[i], c.valid[i] = draw(rng)
	}
	db, _ := newDB()
	tr := obs.NewTracer()
	db.SetTracer(tr)
	ask(t, db, c, "mode")
	db.OnUpdate("X", []incr.Delta{c.set(0, 3, true)})

	tr.SetBudget(obs.NewBudget(50, 0)) // the fold charges one tick a row
	root := tr.Begin("query")
	_, err := db.Scalar("mode", "X", c.source())
	root.End()
	if err == nil {
		t.Fatal("refill over budget answered")
	}
	if _, ok := db.Lookup("mode", "X"); ok || len(db.tables) != 0 {
		t.Errorf("breached refill left a fresh entry (%v) or %d tables", ok, len(db.tables))
	}
	tr.SetBudget(nil)
	ask(t, db, c, "mode")
	if db.tables["X"] == nil {
		t.Error("the refill within budget retained nothing")
	}
}

// BenchmarkOnUpdateFreq is one update's maintenance of mode and unique
// at the statement benchmark's shape: 200 000 rows of 3-decimal floats
// (≈70 000 distinct), a 2 000-delta batch applied forward, then back.
func BenchmarkOnUpdateFreq(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := &nullable{xs: make([]float64, 200_000), valid: make([]bool, 200_000)}
	for i := range c.xs {
		c.xs[i], c.valid[i] = math.Round(rng.NormFloat64()*15_000)/1000, true
	}
	db, _ := newDB()
	db.SetExec(exec.New(2), 0)
	fwd, back := make([]incr.Delta, 2000), make([]incr.Delta, 2000)
	for k := range fwd {
		i := k * 100
		fwd[k], back[len(back)-1-k] = incr.UpdateOf(c.xs[i], 42.5), incr.UpdateOf(42.5, c.xs[i])
	}
	for _, fn := range []string{"mode", "unique"} {
		if _, err := db.Scalar(fn, "X", c.source()); err != nil {
			b.Fatal(err)
		}
	}
	db.OnUpdate("X", fwd)
	db.OnUpdate("X", back)
	for _, fn := range []string{"mode", "unique"} {
		if _, err := db.Scalar(fn, "X", c.source()); err != nil {
			b.Fatal(err)
		}
	}
	if db.tables["X"] == nil || c.passes != 3 {
		b.Fatalf("set-up: table %v after %d passes, want one retained by the third", db.tables["X"], c.passes)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.OnUpdate("X", fwd)
		db.OnUpdate("X", back)
	}
	b.StopTimer()
	if _, ok := db.Lookup("mode", "X"); !ok || c.passes != 3 {
		b.Fatalf("mode fresh = %v after %d passes: maintenance fell back to the column", ok, c.passes)
	}
}
