package query

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"statdb/internal/core"
	"statdb/internal/dataset"
	"statdb/internal/obs"
	"statdb/internal/storage"
	"statdb/internal/view"
	"statdb/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// obsFixture builds the deterministic observability workload: a
// 10240-row microdata view with engine width pinned at 4 (so the cost
// model routes whole-column folds to the pool: 3 chunks of <=4096 rows,
// 3 effective workers, on every machine) backed by a transposed store on
// a cost-accounted device (so scans charge real device ticks).
func obsFixture(t *testing.T) (*core.DBMS, *Executor, *bytes.Buffer) {
	t.Helper()
	d := core.New()
	d.SetParallelism(4)
	if err := d.LoadRaw("micro", workload.Microdata(10240, 12)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	e := NewExecutor(d, "analyst", &out)
	if err := e.Run("materialize mv from micro project AGE,SALARY"); err != nil {
		t.Fatal(err)
	}
	v, err := e.Analyst.View("mv")
	if err != nil {
		t.Fatal(err)
	}
	if err := v.AttachStore(view.BackingTransposed, storage.DefaultDiskCost(), 8); err != nil {
		t.Fatal(err)
	}
	return d, e, &out
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestStatsGolden pins the `stats` text format over a real workload: a
// cache miss recomputed through the parallel engine over the transposed
// store, then a cache hit. Buffer-pool hit/miss, exec utilization, and
// summary hit/miss numbers are all asserted byte-for-byte.
func TestStatsGolden(t *testing.T) {
	_, e, out := obsFixture(t)
	for _, stmt := range []string{
		"compute mean SALARY on mv", // miss: store scan + parallel fold
		"compute mean SALARY on mv", // hit: cache only
	} {
		if err := e.Run(stmt); err != nil {
			t.Fatal(err)
		}
	}
	out.Reset()
	if err := e.Run("stats"); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "stats.golden", out.String())
}

// TestExplainGolden pins the EXPLAIN rendering: the span tree of one
// compute statement, scan charged with device ticks and fold with the
// engine cost model.
func TestExplainGolden(t *testing.T) {
	_, e, out := obsFixture(t)
	out.Reset()
	if err := e.Run("explain compute sd SALARY on mv"); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "explain.golden", out.String())
}

// TestExplainRunsGolden pins the run-strategy rendering: a
// low-cardinality column on a transposed store is RLE-encoded, so the
// planner folds its runs without decoding rows and the scan span says
// so (rows, runs, ratio, strategy=runs; the fold runs engine=runs).
func TestExplainRunsGolden(t *testing.T) {
	d := core.New()
	d.SetParallelism(4)
	sch := dataset.MustSchema(
		dataset.Attribute{Name: "GRADE", Kind: dataset.KindInt, Summarizable: true},
	)
	ds := dataset.New(sch)
	for i := 0; i < 10240; i++ {
		if err := ds.Append(dataset.Row{dataset.Int(int64(i / 400 * 25))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.LoadRaw("grades", ds); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	e := NewExecutor(d, "analyst", &out)
	if err := e.Run("materialize gv from grades project GRADE"); err != nil {
		t.Fatal(err)
	}
	v, err := e.Analyst.View("gv")
	if err != nil {
		t.Fatal(err)
	}
	if err := v.AttachStore(view.BackingTransposed, storage.DefaultDiskCost(), 8); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := e.Run("explain compute mean GRADE on gv"); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "explain_runs.golden", out.String())
}

// TestExplainChargesSumToTotal is the acceptance invariant: the root
// span's total equals the sum of every node's self charge, and the
// query actually charged something.
func TestExplainChargesSumToTotal(t *testing.T) {
	d, e, _ := obsFixture(t)
	if err := e.Run("explain compute mean SALARY on mv"); err != nil {
		t.Fatal(err)
	}
	roots := d.Tracer().Recent()
	if len(roots) == 0 {
		t.Fatal("no trace roots recorded")
	}
	root := roots[len(roots)-1]
	var sum int64
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		sum += s.Node().Self
		for _, c := range s.Node().Children {
			walk(c)
		}
	}
	walk(root)
	if root.Total() == 0 {
		t.Error("query charged nothing")
	}
	if sum != root.Total() {
		t.Errorf("self-charge sum %d != root total %d", sum, root.Total())
	}
}

// TestStatsReflectsStaleRefill closes the loop with the update path: an
// update invalidates the cached mean, the next compute is a stale
// refill, and the counters say so.
func TestStatsReflectsStaleRefill(t *testing.T) {
	d, e, _ := obsFixture(t)
	for _, stmt := range []string{
		"compute mean SALARY on mv",
		"update mv set SALARY = 0 where AGE > 200", // matches nothing...
		"update mv set SALARY = 12345 where AGE = 30",
		"compute mean SALARY on mv",
	} {
		if err := e.Run(stmt); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Metrics()
	if s.Counters[obs.MSummaryIncremental] == 0 {
		t.Errorf("no incremental maintenance recorded: %v", s.Counters[obs.MSummaryIncremental])
	}
	if got := s.Counters[obs.MQueryStatements]; got != 5 {
		t.Errorf("query.statements = %d, want 5", got)
	}
}
