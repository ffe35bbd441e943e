package query

import (
	"bytes"
	"strings"
	"testing"

	"statdb/internal/obs"
	"statdb/internal/shard"
	"statdb/internal/summary"
)

// counterDeltas runs stmt and returns how far it moved each named
// registry counter, plus what it printed.
func counterDeltas(t *testing.T, e *Executor, out *bytes.Buffer, stmt string, names ...string) (map[string]int64, string) {
	t.Helper()
	before := e.DBMS.Metrics()
	out.Reset()
	if err := e.Run(stmt); err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	after := e.DBMS.Metrics()
	d := make(map[string]int64, len(names))
	for _, n := range names {
		d[n] = after.Counters[n] - before.Counters[n]
	}
	return d, out.String()
}

// TestShardedComputeIsCached: the sharded copy is an input form of the
// Summary Database, not a route around it — on a healthy 4-shard view
// the first compute scatters and installs, and the repeat is a hit. sum
// (which the old sharded switch did not know) and median (which it left
// to the rows) take the same route.
func TestShardedComputeIsCached(t *testing.T) {
	d, e, out := obsFixture(t)
	if _, err := d.ShardView("mv", shard.Config{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	names := []string{obs.MShardScatters, obs.MSummaryMisses, obs.MSummaryHits, obs.MViewColumnScans}
	for _, fn := range []string{"mean", "sum", "median"} {
		stmt := "compute " + fn + " SALARY on mv"
		first, _ := counterDeltas(t, e, out, stmt, names...)
		if first[obs.MShardScatters] != 1 || first[obs.MSummaryMisses] != 1 || first[obs.MSummaryHits] != 0 {
			t.Errorf("first %s: %v, want one scatter and one miss", fn, first)
		}
		second, _ := counterDeltas(t, e, out, stmt, names...)
		if second[obs.MShardScatters] != 0 || second[obs.MSummaryMisses] != 0 || second[obs.MSummaryHits] != 1 {
			t.Errorf("second %s: %v, want a hit and nothing else", fn, second)
		}
	}
}

// TestShardedDegradedAnswerIsNotCached: with a shard down and a
// checkpoint present the answer carries its provenance line and nothing
// enters the cache; once the shard heals the next access scatters,
// installs, and the one after is a hit — no invalidation protocol.
func TestShardedDegradedAnswerIsNotCached(t *testing.T) {
	d, e, out := obsFixture(t)
	st, err := d.ShardView("mv", shard.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st.SetDown(1, true)
	names := []string{obs.MShardScatters, obs.MSummaryHits}
	const stmt = "compute mean SALARY on mv"
	for i := 0; i < 2; i++ {
		got, text := counterDeltas(t, e, out, stmt, names...)
		if got[obs.MShardScatters] != 1 || got[obs.MSummaryHits] != 0 {
			t.Errorf("degraded call %d: %v, want a scatter and no hit", i, got)
		}
		if !strings.Contains(text, "degraded answer: answered 3/4 stale=[shard1@gen") {
			t.Errorf("degraded call %d printed no provenance:\n%s", i, text)
		}
	}
	out.Reset()
	if err := e.Run("summary mv"); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "mean") {
		t.Errorf("degraded answer entered the cache:\n%s", out.String())
	}

	st.SetDown(1, false)
	healed, text := counterDeltas(t, e, out, stmt, names...)
	if healed[obs.MShardScatters] != 1 || strings.Contains(text, "degraded") {
		t.Errorf("after heal: %v\n%s", healed, text)
	}
	repeat, _ := counterDeltas(t, e, out, stmt, names...)
	if repeat[obs.MShardScatters] != 0 || repeat[obs.MSummaryHits] != 1 {
		t.Errorf("repeat after heal: %v, want a hit", repeat)
	}
	out.Reset()
	if err := e.Run("summary mv"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mean") || !strings.Contains(out.String(), "fresh") {
		t.Errorf("healed answer not installed:\n%s", out.String())
	}
}

// TestUnknownFunctionSameOnEveryBacking: total and range (names only the
// old sharded switch knew) are rejected by memory, stored and sharded
// views alike, with one error that lists the table's names.
func TestUnknownFunctionSameOnEveryBacking(t *testing.T) {
	want := strings.Join(summary.Functions(), " ")
	for _, sharded := range []bool{false, true} {
		d, e, _ := obsFixture(t)
		if sharded {
			if _, err := d.ShardView("mv", shard.Config{Shards: 2}); err != nil {
				t.Fatal(err)
			}
		}
		for _, fn := range []string{"total", "range"} {
			err := e.Run("compute " + fn + " SALARY on mv")
			if err == nil || !strings.Contains(err.Error(), "unknown function") || !strings.Contains(err.Error(), want) {
				t.Errorf("sharded=%v compute %s: %v, want unknown function listing %q", sharded, fn, err, want)
			}
		}
	}
}

// TestHelpListsTableFunctions: the compute line of help is rendered
// from the aggregate table.
func TestHelpListsTableFunctions(t *testing.T) {
	_, e, out := obsFixture(t)
	out.Reset()
	if err := e.Run("help"); err != nil {
		t.Fatal(err)
	}
	if want := "fn: " + strings.Join(summary.Functions(), " ") + "\n"; !strings.Contains(out.String(), want) {
		t.Errorf("help lacks %q:\n%s", want, out.String())
	}
}

// TestShardsCommandSaysBehind: after an update the sharded copy no
// longer matches the view; `shards V` says so and compute stops
// scattering.
func TestShardsCommandSaysBehind(t *testing.T) {
	d, e, out := obsFixture(t)
	if _, err := d.ShardView("mv", shard.Config{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	if _, text := counterDeltas(t, e, out, "shards mv"); strings.Contains(text, "behind") {
		t.Errorf("fresh copy reported behind:\n%s", text)
	}
	if err := e.Run("update mv set SALARY = 1 where AGE > 200"); err != nil {
		t.Fatal(err)
	}
	if _, text := counterDeltas(t, e, out, "shards mv"); strings.Contains(text, "behind") {
		t.Errorf("an update that changed no row marked the copy behind:\n%s", text)
	}
	if err := e.Run("update mv set SALARY = 1 where AGE > 30"); err != nil {
		t.Fatal(err)
	}
	if _, text := counterDeltas(t, e, out, "shards mv"); !strings.Contains(text, "behind") {
		t.Errorf("updated view's copy not reported behind:\n%s", text)
	}
	got, _ := counterDeltas(t, e, out, "compute max SALARY on mv", obs.MShardScatters, obs.MSummaryMisses)
	if got[obs.MShardScatters] != 0 || got[obs.MSummaryMisses] != 1 {
		t.Errorf("compute on a stale copy: %v, want a row-source miss and no scatter", got)
	}
	if _, err := d.ShardView("mv", shard.Config{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	got, text := counterDeltas(t, e, out, "compute min SALARY on mv", obs.MShardScatters)
	if got[obs.MShardScatters] != 1 {
		t.Errorf("compute after re-sharding: %v, want a scatter\n%s", got, text)
	}
}
