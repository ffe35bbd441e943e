package query

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"statdb/internal/obs"
	"statdb/internal/shard"
)

func TestParseProfile(t *testing.T) {
	c, err := Parse("profile compute mean SALARY on mv")
	if err != nil {
		t.Fatal(err)
	}
	p, ok := c.(ProfileCmd)
	if !ok {
		t.Fatalf("parsed %#v, want ProfileCmd", c)
	}
	if inner, ok := p.Inner.(Compute); !ok || inner.Fn != "mean" {
		t.Errorf("inner = %#v", p.Inner)
	}
	for _, bad := range []string{
		"profile",
		"profile profile files",
		"profile explain files",
		"explain profile files",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestProfileGolden pins the `profile CMD` rendering: the statement's
// span tree folded to per-site self/total/calls/pages/rows, hottest
// site first — all virtual ticks, so byte-stable.
func TestProfileGolden(t *testing.T) {
	_, e, out := obsFixture(t)
	out.Reset()
	if err := e.Run("profile compute sd SALARY on mv"); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "profile.golden", out.String())
}

// TestProfileShardedTickSum is the PR's acceptance invariant: profiling
// a scalar on a sharded view shows per-shard children whose self plus
// descendant ticks sum exactly to the root query total — cross-shard
// stitching loses no charges, so the profile's attribution can be
// trusted. The profile's own tick footer agrees with the tree.
func TestProfileShardedTickSum(t *testing.T) {
	d, e, out := obsFixture(t)
	// Small per-shard pools so the scatter pays real device ticks.
	if _, err := d.ShardView("mv", shard.Config{Shards: 4, PoolPages: 4}); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := e.Run("profile compute mean SALARY on mv"); err != nil {
		t.Fatal(err)
	}
	roots := d.Tracer().Recent()
	if len(roots) == 0 {
		t.Fatal("no trace roots recorded")
	}
	root := roots[len(roots)-1]
	if root.Node().Name != "query" {
		t.Fatalf("root = %s", root.Node().Name)
	}
	var scatter *obs.Span
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		if s.Node().Name == "shard.scatter" {
			scatter = s
		}
		for _, c := range s.Node().Children {
			walk(c)
		}
	}
	walk(root)
	if scatter == nil {
		t.Fatalf("no shard.scatter span; compute did not route through the sharded backing:\n%s", out.String())
	}
	kids := scatter.Node().Children
	if len(kids) != 4 {
		t.Fatalf("scatter has %d children, want 4 shards", len(kids))
	}
	var sum int64
	for _, k := range kids {
		sum += k.Total()
	}
	if sum == 0 {
		t.Fatal("shards charged nothing; the invariant is vacuous")
	}
	if sum != root.Total() {
		t.Errorf("per-shard totals sum %d != root query total %d", sum, root.Total())
	}
	// The rendered profile agrees: its footer carries the same total.
	if want := "ticks"; !strings.Contains(out.String(), want) {
		t.Fatalf("profile output missing %q:\n%s", want, out.String())
	}
	prof := obs.FoldSpan(root)
	if prof.Ticks != root.Total() {
		t.Errorf("folded profile ticks %d != root total %d", prof.Ticks, root.Total())
	}
	// The degraded-provenance print stays absent on the healthy path,
	// and the answer itself is the sharded scalar.
	if strings.Contains(out.String(), "degraded answer") {
		t.Errorf("healthy sharded compute printed degraded provenance:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "mean(SALARY) = ") {
		t.Errorf("sharded compute printed no answer:\n%s", out.String())
	}
}

// TestContinuousProfileRing checks every statement feeds the per-verb
// ring the /profilez endpoint serves, with merge totals conserved.
func TestContinuousProfileRing(t *testing.T) {
	d, e, _ := obsFixture(t)
	for _, stmt := range []string{
		"compute mean SALARY on mv",
		"compute sd SALARY on mv",
		"show mv limit 2",
	} {
		if err := e.Run(stmt); err != nil {
			t.Fatal(err)
		}
	}
	ring := d.Profiles()
	verbs := ring.Verbs()
	want := map[string]int64{"materialize": 1, "compute": 2, "show": 1}
	for v, n := range want {
		m := ring.Merged(v)
		if m.Queries != n {
			t.Errorf("verb %s folded %d queries, want %d (verbs=%v)", v, m.Queries, n, verbs)
		}
	}
	var b strings.Builder
	if err := ring.WriteText(&b, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "== verb compute ==") {
		t.Errorf("/profilez text missing compute:\n%s", b.String())
	}
}

// TestSlowQueryCapture checks the event log attaches the rendered
// profile and explain tree to records that breach the slow-ticks
// threshold, and only to those.
func TestSlowQueryCapture(t *testing.T) {
	_, e, _ := obsFixture(t)
	var logBuf bytes.Buffer
	elog, err := obs.NewEventLog(obs.EventLogConfig{W: &logBuf, SlowTicks: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.SetEventLog(elog)
	if err := e.Run("compute mean SALARY on mv"); err != nil { // charges ticks: slow
		t.Fatal(err)
	}
	if err := e.Run("views"); err != nil { // charges nothing: routine
		t.Fatal(err)
	}
	var slow, routine struct {
		Sev   string `json:"sev"`
		Query *struct {
			Profile string `json:"profile"`
			Explain string `json:"explain"`
		} `json:"query"`
	}
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("event log has %d records, want 2:\n%s", len(lines), logBuf.String())
	}
	if err := json.Unmarshal([]byte(lines[0]), &slow); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &routine); err != nil {
		t.Fatal(err)
	}
	if slow.Sev != "warn" || slow.Query == nil || slow.Query.Profile == "" || slow.Query.Explain == "" {
		t.Errorf("slow record missing capture: %s", lines[0])
	}
	if !strings.Contains(slow.Query.Profile, "query;view.compute") {
		t.Errorf("captured profile lacks sites:\n%s", slow.Query.Profile)
	}
	if !strings.Contains(slow.Query.Explain, "query:") {
		t.Errorf("captured explain lacks the tree:\n%s", slow.Query.Explain)
	}
	if routine.Query == nil || routine.Query.Profile != "" || routine.Query.Explain != "" {
		t.Errorf("routine record captured a profile: %s", lines[1])
	}
}
