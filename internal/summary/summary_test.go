package summary

import (
	"errors"
	"math/rand"
	"testing"

	"statdb/internal/incr"
	"statdb/internal/obs"
	"statdb/internal/rules"
	"statdb/internal/stats"
	"statdb/internal/storage"
)

// column simulates a view column with update support and a pass counter.
type column struct {
	xs     []float64
	passes int
}

func (c *column) source() func() ([]float64, []bool) {
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
	lo, hi, err := stats.Extremes(c.xs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for fn, want := range map[string]float64{
		"sum":  stats.Sum(c.xs, nil),
		"mean": mustF(t)(stats.Mean(c.xs, nil)),
		"min":  lo,
		"max":  hi,
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
	// Raise the unique minimum: the kept state loses it, forcing a rebuild
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

// TestInvalidateStrategyIsLazy: mode re-finalizes from its attribute's
// table only while one is kept. Once every freq row is cached the cold
// table is let go, and an update then leaves mode stale, with no pass,
// until the next read refills it.
func TestInvalidateStrategyIsLazy(t *testing.T) {
	db, _ := newDB()
	c := newColumn(300, 5)
	for _, fn := range []string{"mode", "unique", "median", "q1", "q3"} {
		if _, err := db.Scalar(fn, "X", c.source()); err != nil {
			t.Fatal(err)
		}
	}
	if keptStates(db, freqState)["X"] != nil {
		t.Fatal("the cold table outlived the last freq row it serves")
	}
	base := c.passes
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

// TestCustomResultProtocol is ResultFrom, the one way a result that is
// not a built-in scalar fills from a view: a miss reads each column of
// the tuple once and binds nothing on a hit; an update of either
// attribute makes the next call a stale refill, counted as one; a read or
// a final that fails fails the call and leaves the entry as it was; and
// a built-in function is refused. The summary.result span states each
// outcome.
func TestCustomResultProtocol(t *testing.T) {
	db, _ := newDB()
	tr := obs.NewTracer()
	db.SetTracer(tr)
	cols := map[string]*nullable{"X": {xs: []float64{1, 2, 3, 4}, valid: []bool{true, true, true, true}},
		"Y": {xs: []float64{2, 4, 5, 9}, valid: []bool{true, true, true, true}}}
	binds := 0
	bind := func(attr string) Source { binds++; return cols[attr].rows() }
	var finalErr error
	corr := func() (Result, error) {
		return db.ResultFrom("correlation", []string{"X", "Y"}, bind, func(xs [][]float64, valid [][]bool) (Result, error) {
			if finalErr != nil {
				return Result{}, finalErr
			}
			r, err := stats.Correlation(xs[0], xs[1], valid[0], valid[1])
			return ScalarOf(r), err
		})
	}
	want := func() float64 {
		r, _ := stats.Correlation(cols["X"].xs, cols["Y"].xs, nil, nil)
		return r
	}
	step := func(what, outcome string, binding int, c Counters) {
		t.Helper()
		binds = 0
		root := tr.Begin("query")
		r, err := corr()
		root.End()
		if err != nil || r.Scalar != want() {
			t.Fatalf("%s: %v, %v; want %v", what, r, err, want())
		}
		if n, with := spans(tr.Recent()[len(tr.Recent())-1:], "summary.result", "outcome", outcome); n != 1 || with != 1 {
			t.Errorf("%s: outcome is not %s", what, outcome)
		}
		if got := db.Counters(); binds != binding || got.Hits != c.Hits || got.Misses != c.Misses || got.StaleRefill != c.StaleRefill || got.Passes != c.Passes {
			t.Errorf("%s: %d binds, counters %+v; want %d, %+v", what, binds, got, binding, c)
		}
	}
	step("first", "miss", 2, Counters{Misses: 1, Passes: 2})
	step("repeat", "hit", 0, Counters{Hits: 1, Misses: 1, Passes: 2})
	for i, attr := range []string{"Y", "X"} {
		db.OnUpdate(attr, []incr.Delta{cols[attr].set(0, 7, true)})
		if _, ok := db.Lookup("correlation", "X", "Y"); ok {
			t.Fatalf("an update of %s left the pair fresh", attr)
		}
		cols["X"].broken = true
		if _, err := corr(); !errors.Is(err, errRead) {
			t.Fatalf("a broken read answered %v", err)
		}
		cols["X"].broken, finalErr = false, errors.New("final failed")
		if _, err := corr(); !errors.Is(err, finalErr) {
			t.Fatalf("a failed final answered %v", err)
		}
		finalErr = nil
		if _, ok := db.Lookup("correlation", "X", "Y"); ok {
			t.Fatal("a failed refill left the pair fresh")
		}
		step("refill after "+attr, "stale-refill", 2, Counters{Hits: 1, Misses: 1, StaleRefill: 1 + int64(i), Passes: 6 + 4*int64(i)})
	}
	if _, err := db.ResultFrom("mean", []string{"X"}, bind, nil); err == nil {
		t.Error("ResultFrom filled a built-in function")
	}
}

// TestMultiAttributeEntries: an entry over a tuple of attributes is
// reached by an update or an invalidation of any of them — before and
// after a Save and Load — and by no attribute whose name merely extends
// one of them; Dump, Save and Len count it once.
func TestMultiAttributeEntries(t *testing.T) {
	pairs := func(db *DB) {
		db.StoreCustom("correlation", []string{"X", "Y"}, ScalarOf(0.9))
		db.StoreCustom("correlation", []string{"XY", "Z"}, ScalarOf(0.5))
		db.StoreCustom("correlation", []string{"X", "X"}, ScalarOf(1))
	}
	fresh := func(db *DB, attrs ...string) bool {
		_, ok := db.Lookup("correlation", attrs...)
		return ok
	}
	db, _ := newDB()
	pairs(db)
	if r, ok := db.Lookup("correlation", "X", "Y"); !ok || r.Scalar != 0.9 {
		t.Fatalf("pair entry = %v, %v", r, ok)
	}
	if rows := db.Dump(); db.Len() != 3 || len(rows) != 3 {
		t.Fatalf("three pairs: Len %d, Dump %+v", db.Len(), rows)
	}
	heap := NewSummaryHeapFile(storage.NewBufferPool(storage.NewMemDevice(storage.DefaultDiskCost()), 16))
	if err := db.Save(heap); err != nil {
		t.Fatal(err)
	}
	restored, _ := newDB()
	if rep, err := Load(restored, heap); err != nil || rep.Loaded != 3 || restored.Len() != 3 || len(restored.Dump()) != 3 {
		t.Fatalf("Save and Load: %v, %v, Len %d, Dump %+v", rep, err, restored.Len(), restored.Dump())
	}
	for _, db := range []*DB{db, restored} {
		db.OnUpdate("X", []incr.Delta{{Insert: true, New: 1}})
		if fresh(db, "X", "Y") || fresh(db, "X", "X") || !fresh(db, "XY", "Z") {
			t.Errorf("an update of X: (X, Y) fresh %v, (X, X) fresh %v, (XY, Z) fresh %v; want false, false, true",
				fresh(db, "X", "Y"), fresh(db, "X", "X"), fresh(db, "XY", "Z"))
		}
	}
	for _, reach := range []func(db *DB){
		func(db *DB) { db.OnUpdate("Y", []incr.Delta{{Insert: true, New: 1}}) },
		func(db *DB) { db.Invalidate("Y") },
	} {
		db, _ := newDB()
		pairs(db)
		restored, _ := newDB()
		heap := NewSummaryHeapFile(storage.NewBufferPool(storage.NewMemDevice(storage.DefaultDiskCost()), 16))
		if err := db.Save(heap); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(restored, heap); err != nil {
			t.Fatal(err)
		}
		for _, db := range []*DB{db, restored} {
			reach(db)
			if fresh(db, "X", "Y") || !fresh(db, "X", "X") || !fresh(db, "XY", "Z") {
				t.Errorf("Y reached (X, Y) %v, (X, X) %v, (XY, Z) %v; want only (X, Y)",
					!fresh(db, "X", "Y"), !fresh(db, "X", "X"), !fresh(db, "XY", "Z"))
			}
		}
	}
	if n := db.Invalidate("Z"); n != 1 || fresh(db, "XY", "Z") {
		t.Errorf("Invalidate(Z) = %d, want 1 stale (XY, Z)", n)
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
	// same functions repeatedly does far fewer passes with the cache — and
	// the first read of the column folds the states every later fill of
	// the attribute finalizes from.
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
	if c.passes != 1 {
		t.Errorf("cached session made %d passes; want 1 (one read serves every function)", c.passes)
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

// TestUpdateTouchesOnlyItsAttribute: an update or an invalidation of X
// reaches X's entries and no entry of XY, an attribute whose name
// extends X's.
func TestUpdateTouchesOnlyItsAttribute(t *testing.T) {
	db, _ := newDB()
	x, xy := newColumn(100, 1), newColumn(100, 2)
	for _, fn := range []string{"mean", "median", "mode"} {
		for attr, c := range map[string]*column{"X": x, "XY": xy} {
			if _, err := db.Scalar(fn, attr, c.source()); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := db.Dump()
	check := func(after string) {
		t.Helper()
		for _, r := range db.Dump() {
			for _, w := range want {
				if r.Attribute == "XY" && w.Attribute == "XY" && r.Function == w.Function && r != w {
					t.Errorf("%s of X changed %s(XY) from %+v to %+v", after, r.Function, w, r)
				}
			}
		}
	}
	db.OnUpdate("X", []incr.Delta{x.update(0, x.xs[0]+1000)})
	check("an update")
	db.Invalidate("X")
	check("Invalidate")
}
