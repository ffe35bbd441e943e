package summary

import (
	"math/rand"
	"testing"

	"statdb/internal/incr"
	"statdb/internal/rules"
	"statdb/internal/stats"
)

// column simulates a view column with update support and a pass counter.
type column struct {
	xs     []float64
	passes int
}

func (c *column) source() Source {
	return func() ([]float64, []bool) {
		c.passes++
		return append([]float64(nil), c.xs...), nil
	}
}

func (c *column) update(i int, v float64) incr.Delta {
	d := incr.UpdateOf(c.xs[i], v)
	c.xs[i] = v
	return d
}

func newColumn(n int, seed int64) *column {
	rng := rand.New(rand.NewSource(seed))
	c := &column{xs: make([]float64, n)}
	for i := range c.xs {
		c.xs[i] = float64(rng.Intn(1000))
	}
	return c
}

func newDB() (*DB, *rules.ManagementDB) {
	mdb := rules.NewManagementDB()
	return NewDB(mdb), mdb
}

func TestScalarCacheHitsAndMisses(t *testing.T) {
	db, _ := newDB()
	c := newColumn(1000, 1)
	v1, err := db.Scalar("mean", "X", c.source())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := stats.Mean(c.xs, nil)
	if v1 != want {
		t.Errorf("mean = %g, want %g", v1, want)
	}
	if c.passes != 1 {
		t.Fatalf("first call made %d passes", c.passes)
	}
	// Second call: pure cache hit, no pass.
	v2, err := db.Scalar("mean", "X", c.source())
	if err != nil || v2 != v1 {
		t.Errorf("cached mean = %g, %v", v2, err)
	}
	if c.passes != 1 {
		t.Errorf("cache hit re-read the column (%d passes)", c.passes)
	}
	ctr := db.Counters()
	if ctr.Hits != 1 || ctr.Misses != 1 {
		t.Errorf("counters = %+v", ctr)
	}
	if _, err := db.Scalar("no-such-fn", "X", c.source()); err == nil {
		t.Error("unknown builtin accepted")
	}
}

func TestIncrementalMaintenance(t *testing.T) {
	db, _ := newDB()
	c := newColumn(500, 2)
	for _, fn := range []string{"count", "sum", "mean", "variance", "sd", "min", "max"} {
		if _, err := db.Scalar(fn, "X", c.source()); err != nil {
			t.Fatal(err)
		}
	}
	passesAfterFill := c.passes
	// Apply 100 updates; the aggregates track exactly. The only allowed
	// extra passes are min/max defeats (deleting the last copy of the
	// extremum), which the counters record as rebuilds.
	for i := 0; i < 100; i++ {
		d := c.update(i, c.xs[i]+50)
		db.OnUpdate("X", []incr.Delta{d})
	}
	if extra := int64(c.passes - passesAfterFill); extra != db.Counters().Rebuilds {
		t.Errorf("incremental maintenance made %d unexplained passes (rebuilds=%d)",
			extra, db.Counters().Rebuilds)
	}
	if db.Counters().Rebuilds > 3 {
		t.Errorf("too many rebuilds for 100 raise-only updates: %d", db.Counters().Rebuilds)
	}
	for fn, want := range map[string]float64{
		"sum":  stats.Sum(c.xs, nil),
		"mean": mustF(t)(stats.Mean(c.xs, nil)),
		"min":  mustF(t)(stats.Min(c.xs, nil)),
		"max":  mustF(t)(stats.Max(c.xs, nil)),
	} {
		got, err := db.Scalar(fn, "X", c.source())
		if err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s = %g, want %g", fn, got, want)
		}
	}
	ctr := db.Counters()
	if ctr.Incremental == 0 {
		t.Error("no incremental applications counted")
	}
}

func mustF(t *testing.T) func(float64, error) float64 {
	return func(v float64, err error) float64 {
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

func TestMinDefeatTriggersRebuild(t *testing.T) {
	db, _ := newDB()
	c := &column{xs: []float64{5, 3, 8}}
	if _, err := db.Scalar("min", "X", c.source()); err != nil {
		t.Fatal(err)
	}
	// Raise the unique minimum: defeats the maintainer, forcing a rebuild
	// pass.
	d := c.update(1, 100)
	db.OnUpdate("X", []incr.Delta{d})
	got, err := db.Scalar("min", "X", c.source())
	if err != nil || got != 5 {
		t.Errorf("min = %g, %v", got, err)
	}
	if db.Counters().Rebuilds == 0 {
		t.Error("no rebuild counted")
	}
}

func TestWindowMaintenanceForMedian(t *testing.T) {
	db, _ := newDB()
	c := newColumn(1001, 3)
	if _, err := db.Scalar("median", "X", c.source()); err != nil {
		t.Fatal(err)
	}
	base := c.passes
	for i := 0; i < 50; i++ {
		d := c.update(i, c.xs[i]+10)
		db.OnUpdate("X", []incr.Delta{d})
	}
	got, err := db.Scalar("median", "X", c.source())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := stats.Median(c.xs, nil)
	if got != want {
		t.Errorf("median = %g, want %g", got, want)
	}
	if db.Counters().Slides == 0 {
		t.Error("no window slides counted")
	}
	if c.passes-base > 1 {
		t.Errorf("window maintenance made %d passes for 50 small updates", c.passes-base)
	}
}

func TestWindowRunOffRebuilds(t *testing.T) {
	db, _ := newDB()
	db.WindowCapacity = 7 // tiny window runs off fast
	c := newColumn(1001, 4)
	if _, err := db.Scalar("median", "X", c.source()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		d := c.update(i, c.xs[i]+100000) // one-directional drift
		db.OnUpdate("X", []incr.Delta{d})
	}
	got, err := db.Scalar("median", "X", c.source())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := stats.Median(c.xs, nil)
	if got != want {
		t.Errorf("median = %g, want %g", got, want)
	}
	if db.Counters().Rebuilds == 0 {
		t.Error("one-directional drift never rebuilt a 7-wide window")
	}
}

func TestInvalidateStrategyIsLazy(t *testing.T) {
	db, _ := newDB()
	c := newColumn(300, 5)
	if _, err := db.Scalar("mode", "X", c.source()); err != nil {
		t.Fatal(err)
	}
	base := c.passes
	// mode invalidates on update; no pass until next read.
	for i := 0; i < 20; i++ {
		d := c.update(i, 777)
		db.OnUpdate("X", []incr.Delta{d})
	}
	if c.passes != base {
		t.Errorf("invalidate strategy made %d eager passes", c.passes-base)
	}
	if _, ok := db.Lookup("mode", "X"); ok {
		t.Error("stale mode still served")
	}
	got, err := db.Scalar("mode", "X", c.source())
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := stats.Mode(c.xs, nil)
	if got != want {
		t.Errorf("mode = %g, want %g", got, want)
	}
	if c.passes != base+1 {
		t.Errorf("lazy refill made %d passes", c.passes-base)
	}
}

// TestCustomResultProtocol is Lookup-then-StoreCustom, the one way a
// result that is not a built-in scalar enters the cache: a fresh entry
// answers Lookup, an update invalidates it, and it stays stale until the
// caller stores again.
func TestCustomResultProtocol(t *testing.T) {
	db, _ := newDB()
	c := newColumn(100, 6)
	calls := 0
	cached := func() Result {
		if r, ok := db.Lookup("histogram10", "X"); ok {
			return r
		}
		calls++
		h, err := stats.NewHistogram(c.xs, nil, 10)
		if err != nil {
			t.Fatal(err)
		}
		r := HistogramOf(h)
		db.StoreCustom("histogram10", []string{"X"}, r)
		return r
	}
	if r1 := cached(); r1.Kind != HistogramResult {
		t.Fatalf("first read: %v", r1)
	}
	r2 := cached()
	if calls != 1 {
		t.Errorf("second read recomputed (calls=%d)", calls)
	}
	if r2.Hist.Total() != 100 {
		t.Errorf("histogram total = %d", r2.Hist.Total())
	}
	// Updates invalidate custom entries; the next read recomputes.
	db.OnUpdate("X", []incr.Delta{incr.UpdateOf(c.xs[0], 5)})
	c.xs[0] = 5
	if _, ok := db.Lookup("histogram10", "X"); ok {
		t.Error("stale custom entry served")
	}
	cached()
	if calls != 2 {
		t.Errorf("calls = %d", calls)
	}
}

func TestMultiAttributeEntries(t *testing.T) {
	db, _ := newDB()
	db.StoreCustom("correlation", []string{"X", "Y"}, ScalarOf(0.9))
	if r, ok := db.Lookup("correlation", "X", "Y"); !ok || r.Scalar != 0.9 {
		t.Fatalf("pair entry = %v, %v", r, ok)
	}
	// Updates to either attribute invalidate the pair entry.
	db.OnUpdate("X", []incr.Delta{incr.InsertOf(1)})
	if _, ok := db.Lookup("correlation", "X", "Y"); ok {
		t.Error("pair entry survived update of first attribute")
	}
}

func TestInvalidateByAttributeClustered(t *testing.T) {
	db, _ := newDB()
	cx, cy := newColumn(100, 7), newColumn(100, 8)
	for _, fn := range []string{"mean", "min", "max"} {
		if _, err := db.Scalar(fn, "X", cx.source()); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Scalar(fn, "Y", cy.source()); err != nil {
			t.Fatal(err)
		}
	}
	n := db.Invalidate("X")
	if n != 3 {
		t.Errorf("Invalidate(X) = %d, want 3", n)
	}
	if _, ok := db.Lookup("mean", "X"); ok {
		t.Error("X entry survived")
	}
	if _, ok := db.Lookup("mean", "Y"); !ok {
		t.Error("Y entry damaged by X invalidation")
	}
	// Re-invalidating finds nothing fresh.
	if n := db.Invalidate("X"); n != 0 {
		t.Errorf("second Invalidate = %d", n)
	}
}

func TestPolicies(t *testing.T) {
	// Invalidate-all defers all work; recompute-all pays every update.
	for _, tc := range []struct {
		policy      Policy
		wantEagerIO bool
	}{
		{PolicyInvalidateAll, false},
		{PolicyRecomputeAll, true},
	} {
		db, _ := newDB()
		db.SetPolicy(tc.policy)
		c := newColumn(500, 9)
		if _, err := db.Scalar("mean", "X", c.source()); err != nil {
			t.Fatal(err)
		}
		base := c.passes
		for i := 0; i < 10; i++ {
			d := c.update(i, c.xs[i]+1)
			db.OnUpdate("X", []incr.Delta{d})
		}
		eager := c.passes > base
		if eager != tc.wantEagerIO {
			t.Errorf("%v: eager=%v, want %v", tc.policy, eager, tc.wantEagerIO)
		}
		// Either way the next read is correct.
		got, err := db.Scalar("mean", "X", c.source())
		if err != nil {
			t.Fatal(err)
		}
		want, _ := stats.Mean(c.xs, nil)
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%v: mean = %g, want %g", tc.policy, got, want)
		}
	}
}

func TestDumpFigure4Shape(t *testing.T) {
	db, _ := newDB()
	pop := &column{xs: []float64{12300347, 21342193, 2143924, 33422988}}
	sal := &column{xs: []float64{33122, 25883, 29933, 29402}}
	if _, err := db.Scalar("min", "POPULATION", pop.source()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Scalar("max", "POPULATION", pop.source()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Scalar("median", "AVE_SALARY", sal.source()); err != nil {
		t.Fatal(err)
	}
	rows := db.Dump()
	if len(rows) != 3 {
		t.Fatalf("Dump rows = %d", len(rows))
	}
	// Clustered on attribute: AVE_SALARY before POPULATION.
	if rows[0].Attribute != "AVE_SALARY" || rows[1].Attribute != "POPULATION" {
		t.Errorf("clustering broken: %+v", rows)
	}
	if rows[1].Function > rows[2].Function {
		t.Errorf("functions not ordered within attribute: %+v", rows)
	}
}

func TestCacheSavesSessionPasses(t *testing.T) {
	// The headline claim (Section 3.1): a session that recomputes the
	// same functions repeatedly does far fewer passes with the cache.
	db, _ := newDB()
	c := newColumn(2000, 10)
	const reps = 50
	for i := 0; i < reps; i++ {
		for _, fn := range []string{"mean", "sd", "median", "min", "max"} {
			if _, err := db.Scalar(fn, "X", c.source()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c.passes != 5 {
		t.Errorf("cached session made %d passes; want 5 (one per function)", c.passes)
	}
	if hits := db.Counters().Hits; hits != 5*(reps-1) {
		t.Errorf("hits = %d, want %d", hits, 5*(reps-1))
	}
}

func TestResultStrings(t *testing.T) {
	if got := ScalarOf(2.5).String(); got != "2.5" {
		t.Errorf("scalar renders %q", got)
	}
	if got := VectorOf([]float64{1, 2}).String(); got != "[1 2]" {
		t.Errorf("vector renders %q", got)
	}
	h, _ := stats.NewHistogram([]float64{1, 2, 3}, nil, 2)
	if got := HistogramOf(h).String(); got != "histogram(2 bins, 3 values)" {
		t.Errorf("histogram renders %q", got)
	}
	if got := TextOf("note").String(); got != "note" {
		t.Errorf("text renders %q", got)
	}
	for k, want := range map[ResultKind]string{
		ScalarResult: "scalar", VectorResult: "vector",
		HistogramResult: "histogram", TextResult: "text",
	} {
		if k.String() != want {
			t.Errorf("kind %d renders %q", k, k.String())
		}
	}
}
