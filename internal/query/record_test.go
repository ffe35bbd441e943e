package query

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"statdb/internal/core"
	"statdb/internal/dataset"
	"statdb/internal/obs"
	"statdb/internal/rules"
	"statdb/internal/shard"
	"statdb/internal/storage"
	"statdb/internal/summary"
	"statdb/internal/view"
)

// referenceRecord is the derivation logQuery used before records were
// read from the statement's own span tree, kept here as the oracle: diff
// two whole-system registry snapshots taken around the statement and
// re-walk the tree for scanned rows. It is exact only while nothing else
// counts inside the window — true of every statement the differential
// session below runs, false by construction in
// TestRecordCountsOnlyItsOwnStatement.
func referenceRecord(text, session string, seq int64, root *obs.Span, pages int64, before, after obs.Snapshot, err error) obs.QueryRecord {
	var scanRows func(s *obs.Span) int64
	scanRows = func(s *obs.Span) int64 {
		var n int64
		if s.Name() == "scan" {
			for _, a := range s.Attrs() {
				if a.Key == "rows" {
					var v int64
					fmt.Sscanf(a.Value, "%d", &v)
					n += v
				}
			}
		}
		for _, c := range s.Children() {
			n += scanRows(c)
		}
		return n
	}
	rec := obs.QueryRecord{
		Query:      text,
		Session:    session,
		SessionSeq: seq,
		TotalTicks: root.Total(),
		Rows:       scanRows(root),
		Pages:      pages,
	}
	delta := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
	rec.CacheHits = delta(obs.MSummaryHits)
	rec.CacheMiss = delta(obs.MSummaryMisses) + delta(obs.MSummaryStaleRefill)
	switch {
	case delta(obs.MSummaryIncremental) > 0 || delta(obs.MSummarySlides) > 0:
		rec.Strategy = "incremental"
	case delta(obs.MSummaryRecomputes) > 0 || delta(obs.MSummaryMisses) > 0:
		rec.Strategy = "recompute"
	case rec.CacheHits > 0:
		rec.Strategy = "cached"
	}
	switch {
	case delta(obs.MSummaryRecomputeParallel) > 0 || delta(obs.MExecRunsParallel) > 0:
		rec.Engine = "parallel"
	case delta(obs.MSummaryRecomputeSerial) > 0 || delta(obs.MExecRunsSerial) > 0:
		rec.Engine = "serial"
	}
	var be *obs.BudgetError
	if errors.As(err, &be) {
		rec.Budget = be.Error()
		var pb, xb bytes.Buffer
		_ = obs.FoldSpan(root).WriteTop(&pb, 10)
		_ = obs.WriteTree(&xb, root)
		rec.Profile, rec.Explain = pb.String(), xb.String()
	} else if err != nil {
		rec.Err = err.Error()
	}
	return rec
}

// recordData is the differential session's raw file: SALARY is a
// high-cardinality float (stored Plain), GRADE a sorted low-cardinality
// code (stored RLE, so a transposed store folds it run by run), AGE the
// update predicate's column, SEX and RACE the categorical ones.
func recordData(t *testing.T, rows int) *dataset.Dataset {
	t.Helper()
	ds := dataset.New(dataset.MustSchema(
		dataset.Attribute{Name: "ID", Kind: dataset.KindInt, Category: true},
		dataset.Attribute{Name: "SEX", Kind: dataset.KindString},
		dataset.Attribute{Name: "RACE", Kind: dataset.KindInt},
		dataset.Attribute{Name: "AGE", Kind: dataset.KindInt, Summarizable: true},
		dataset.Attribute{Name: "SALARY", Kind: dataset.KindFloat, Summarizable: true},
		dataset.Attribute{Name: "GRADE", Kind: dataset.KindInt, Summarizable: true},
	))
	s := uint64(12)
	for i := 0; i < rows; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		sex := "M"
		if s>>40&1 == 1 {
			sex = "F"
		}
		age := 18 + int64(s>>33%62)
		if err := ds.Append(dataset.Row{
			dataset.Int(int64(i)),
			dataset.String(sex),
			dataset.Int(1 + int64(s>>45%5)),
			dataset.Int(age),
			dataset.Float(8000 + 600*float64(age) + float64(s>>20%12000)),
			dataset.Int(int64(i / 400 * 25)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

// recordBacking is one way the differential session's view is stored.
type recordBacking struct {
	name string
	attr string // the column the scripted computes and updates work on
	// Values below lo and above hi exist in attr, so clamping them away
	// deletes every copy of its minimum and its maximum.
	lo, hi int
	prep   func(t *testing.T, d *core.DBMS, v *view.View)
}

var recordBackings = []recordBacking{
	{name: "memory", attr: "SALARY", lo: 20000, hi: 50000, prep: func(*testing.T, *core.DBMS, *view.View) {}},
	{name: "transposed plain", attr: "SALARY", lo: 20000, hi: 50000, prep: attachTransposed},
	{name: "transposed RLE runs", attr: "GRADE", lo: 100, hi: 500, prep: attachTransposed},
	{name: "4-shard healthy", attr: "SALARY", lo: 20000, hi: 50000, prep: func(t *testing.T, d *core.DBMS, _ *view.View) {
		if _, err := d.ShardView("mv", shard.Config{Shards: 4}); err != nil {
			t.Fatal(err)
		}
	}},
	{name: "4-shard degraded", attr: "SALARY", lo: 20000, hi: 50000, prep: func(t *testing.T, d *core.DBMS, _ *view.View) {
		st, err := d.ShardView("mv", shard.Config{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		st.SetDown(1, true)
	}},
}

func attachTransposed(t *testing.T, _ *core.DBMS, v *view.View) {
	t.Helper()
	if err := v.AttachStore(view.BackingTransposed, storage.DefaultDiskCost(), 8); err != nil {
		t.Fatal(err)
	}
}

// TestRecordMatchesRegistryDiff runs one scripted session — every verb,
// and every way the Summary Database can serve or maintain a value —
// over each backing, and holds every field of every event record to the
// registry-diff oracle.
func TestRecordMatchesRegistryDiff(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range recordBackings {
		t.Run(b.name, func(t *testing.T) { runRecordSession(t, b, seen) })
	}
	for _, situation := range []string{
		"miss", "hit", "stale refill", "incremental", "slide", "rebuild", "policy recompute",
		"budget breach", "error", "engine serial", "engine parallel", "gather", "degraded", "runs",
		"maintained mode",
	} {
		if !seen[situation] {
			t.Errorf("no statement on any backing exercised %q", situation)
		}
	}
}

func runRecordSession(t *testing.T, b recordBacking, seen map[string]bool) {
	d := core.New()
	d.SetParallelism(4)
	if err := d.LoadRaw("micro", recordData(t, 10240)); err != nil {
		t.Fatal(err)
	}
	if err := d.LoadRaw("tiny", recordData(t, 64)); err != nil {
		t.Fatal(err)
	}
	var out, logBuf bytes.Buffer
	e := NewExecutor(d, "analyst", &out)
	log, err := obs.NewEventLog(obs.EventLogConfig{W: &logBuf})
	if err != nil {
		t.Fatal(err)
	}
	e.SetEventLog(log)
	e.SetSession("s1")

	var seq int64
	var last obs.QueryRecord // the latest statement's record
	// run executes one statement and checks its record against the
	// oracle.
	run := func(stmt string) error {
		t.Helper()
		logBuf.Reset()
		before := d.Metrics()
		m, err := e.RunMeasured(stmt)
		after := d.Metrics()
		seq++
		roots := d.Tracer().Recent()
		want := referenceRecord(stmt, "s1", seq, roots[len(roots)-1], m.Pages, before, after, err)
		var ev obs.Event
		if err := json.Unmarshal(logBuf.Bytes(), &ev); err != nil || ev.Query == nil {
			t.Fatalf("%s: no query record in %q (%v)", stmt, logBuf.String(), err)
		}
		if *ev.Query != want {
			t.Errorf("%s:\n record %+v\n oracle %+v", stmt, *ev.Query, want)
		}
		last = *ev.Query
		delta := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
		for situation, hit := range map[string]bool{
			"miss":             delta(obs.MSummaryMisses) > 0,
			"hit":              delta(obs.MSummaryHits) > 0,
			"stale refill":     delta(obs.MSummaryStaleRefill) > 0,
			"incremental":      delta(obs.MSummaryIncremental) > 0,
			"slide":            delta(obs.MSummarySlides) > 0,
			"rebuild":          delta(obs.MSummaryRebuilds) > 0,
			"policy recompute": want.Strategy == "recompute" && want.CacheMiss == 0,
			"budget breach":    want.Budget != "",
			"error":            want.Err != "",
			"engine serial":    want.Engine == "serial",
			"engine parallel":  want.Engine == "parallel",
			"gather":           delta(obs.MShardScatters) > 0,
			"degraded":         delta(obs.MShardDegraded) > 0,
			"runs":             delta(obs.MExecRunStrategyHits) > 0,
		} {
			if hit {
				seen[situation] = true
			}
		}
		return err
	}
	ok := func(stmt string) {
		t.Helper()
		if err := run(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	fails := func(stmt string) {
		t.Helper()
		if err := run(stmt); err == nil {
			t.Fatalf("%s: no error", stmt)
		}
	}

	// A where clause evaluates through the materialization pool: fanned
	// out over micro's three chunks, inline over tiny's one.
	ok("materialize mv from micro where AGE >= 18")
	ok("materialize small from tiny where AGE >= 18")
	ok("materialize plain from tiny project AGE,SALARY")
	fails("materialize bad from micro where NOPE = 1")
	v, err := e.Analyst.View("mv")
	if err != nil {
		t.Fatal(err)
	}
	b.prep(t, d, v)

	x := b.attr
	dir := t.TempDir()
	csv := filepath.Join(dir, "mv.csv")
	for _, stmt := range []string{
		"files", "views", "help",
		// Every built-in: a miss, then a hit.
		"compute count " + x + " on mv", "compute count " + x + " on mv",
		"compute sum " + x + " on mv", "compute mean " + x + " on mv", "compute mean " + x + " on mv",
		"compute variance " + x + " on mv", "compute min " + x + " on mv", "compute max " + x + " on mv",
		"compute median " + x + " on mv", "compute median " + x + " on mv",
		"compute q1 " + x + " on mv", "compute mode " + x + " on mv", "compute unique " + x + " on mv",
		"compute mean " + x + " on small", // a short column folds serially
		"describe " + x + " on mv", "describe AGE on mv",
		"explain compute q3 " + x + " on mv", "profile compute q3 " + x + " on mv",
		"summary mv",
		// Custom cached results: miss, then hit.
		"histogram " + x + " on mv bins 8", "histogram " + x + " on mv bins 8",
		"correlate AGE " + x + " on mv", "correlate AGE " + x + " on mv", "correlate AGE " + x + " on mv rank",
		"crosstab SEX RACE on mv", "frequencies SEX on mv",
		"ttest " + x + " by SEX on mv", "regress " + x + " on AGE over mv",
		// The first update: maintainers fold the deltas in, windows slide,
		// mode and unique — no table is retained yet — go stale.
		"update mv set " + x + " = 4321 where AGE = 30",
	} {
		ok(stmt)
	}

	// A ceiling below any column pass: a miss and a stale refill — the
	// first after an update still scans — both breach, a hit still fits,
	// and nothing the breach touched is cached.
	d.SetQueryBudget(40, 0)
	fails("compute variance AGE on mv")
	fails("compute mode " + x + " on mv")
	ok("compute mean AGE on mv")
	_ = run("histogram AGE on mv bins 4") // breaches only where the column read is charged
	d.SetQueryBudget(0, 0)
	ok("compute variance AGE on mv")

	// The refill within budget retains the frequency table (a run-served
	// one has none to retain), so after the second update mode is a hit
	// the update itself kept current.
	tabled := b.attr != "GRADE"
	ok("compute mode " + x + " on mv")
	ok("update mv set " + x + " = 1234 where AGE = 31")
	if tabled && last.Strategy != "incremental" {
		t.Errorf("second update: strategy %q, want incremental", last.Strategy)
	}
	ok("compute mode " + x + " on mv")
	if maintained := last.CacheHits == 1 && last.CacheMiss == 0; maintained != tabled {
		t.Errorf("mode re-asked after the second update: %d hits, %d misses", last.CacheHits, last.CacheMiss)
	} else if maintained {
		seen["maintained mode"] = true
	}

	for _, stmt := range []string{
		"compute mean " + x + " on mv", "compute median " + x + " on mv",
		"histogram " + x + " on mv bins 8",
		// Deleting every copy of the extremes defeats min and max.
		fmt.Sprintf("update mv set %s = %d where %s < %d", x, b.lo, x, b.lo),
		fmt.Sprintf("update mv set %s = %d where %s > %d", x, b.hi, x, b.hi),
		"compute min " + x + " on mv", "compute unique " + x + " on mv",
		"undo mv", "compute max " + x + " on mv", "compute mode " + x + " on mv",
		"history mv", "rollback mv to 0", "compute mean " + x + " on mv", "compute unique " + x + " on mv",
		"show mv limit 3", "advice mv", "publish mv",
		"sample 50 from mv as smp seed 3", "compute mean " + x + " on smp",
		"export mv to '" + csv + "'", "import '" + csv + "' as again",
		"save to '" + filepath.Join(dir, "db") + "'",
	} {
		ok(stmt)
	}
	if st, _ := v.ShardStore(); st != nil {
		ok("shards mv")
	} else {
		fails("shards mv")
	}
	fails("compute mean NOPE on mv")
	fails("compute range " + x + " on mv")
	fails("compute mean " + x + " on nosuch")
	fails("compute mean SEX on mv")
	fails("undo small")

	// The recompute-everything policy: an update recomputes each cached
	// entry on the spot.
	v.Summary().SetPolicy(summary.PolicyRecomputeAll)
	ok("update mv set " + x + " = 888 where AGE = 41")
	ok("compute mean " + x + " on mv")
}

// TestRecordCountsOnlyItsOwnStatement: a record reports what its own
// statement did, whatever else the system counts meanwhile. The
// statement is a cache hit; while it prints its answer another view —
// wired to the same DBMS registry, but not to the statement's tracer —
// takes a cache hit of its own. A whole-system diff sees two.
func TestRecordCountsOnlyItsOwnStatement(t *testing.T) {
	d, e, _ := obsFixture(t)
	other, err := view.New(recordData(t, 16), rules.NewManagementDB(),
		rules.ViewDef{Name: "other", Analyst: "someone", Source: "raw"},
		view.Options{Metrics: d.MetricsRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Compute("mean", "SALARY"); err != nil {
		t.Fatal(err)
	}
	if err := e.Run("compute mean SALARY on mv"); err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	log, err := obs.NewEventLog(obs.EventLogConfig{W: &logBuf})
	if err != nil {
		t.Fatal(err)
	}
	e.SetEventLog(log)
	e.Out = writerFunc(func(p []byte) (int, error) {
		_, err := other.Compute("mean", "SALARY")
		return len(p), err
	})
	if err := e.Run("compute mean SALARY on mv"); err != nil {
		t.Fatal(err)
	}
	if hits := other.Summary().Counters().Hits; hits != 1 {
		t.Fatalf("the other view took %d hits inside the window, want 1", hits)
	}
	if got := logBuf.String(); !strings.Contains(got, `"cache_hits":1,"strategy":"cached"`) {
		t.Errorf("record counted someone else's work: %s", got)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
