package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestHandlerZeroTraffic pins the empty-state output of every endpoint
// before a single statement has run: a server that just booted must
// serve well-formed (and for JSON, parseable) bodies, not divide by
// zero or emit NaN — the regression suite for the load driver's
// scrape-before-drive window.
func TestHandlerZeroTraffic(t *testing.T) {
	reg := NewRegistry()
	RegisterBaseline(reg)
	smp := NewSampler(reg.Snapshot, 8, 0)
	h := NewHandler(HandlerConfig{
		Snap:     reg.Snapshot,
		Tracer:   NewTracer(),
		Sampler:  smp,
		Profiles: NewProfileRing(4),
		SLO:      NewSLO(smp, SLOConfig{P99Ticks: 1, MaxErrorRate: 0.1, MaxBreachRate: 0.1}),
	})
	get := func(path string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s = %d", path, rec.Code)
		}
		return rec.Body.String()
	}

	if body := get("/healthz"); !strings.HasPrefix(body, "ok\n") {
		t.Errorf("/healthz with no traffic = %q, want ok headline", body)
	}
	if body := get("/profilez"); !strings.Contains(body, "(no profiles)") {
		t.Errorf("/profilez with no traffic = %q", body)
	}
	var merged map[string]*Profile
	if err := json.Unmarshal([]byte(get("/profilez?format=json")), &merged); err != nil {
		t.Errorf("/profilez json with no traffic unparseable: %v", err)
	} else if len(merged) != 0 {
		t.Errorf("/profilez json with no traffic = %v, want empty object", merged)
	}
	var statz struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(get("/statz")), &statz); err != nil {
		t.Errorf("/statz with no traffic unparseable: %v", err)
	}
	if _, ok := statz.Counters[MQueryStatements]; !ok {
		t.Error("/statz with no traffic missing baseline counters")
	}
	if body := get("/metrics"); !strings.Contains(body, "statdb_query_statements 0") {
		t.Errorf("/metrics with no traffic missing zero baseline counter:\n%s", body)
	}
	if body := get("/tracez"); !strings.Contains(body, "(no traces)") {
		t.Errorf("/tracez with no traffic = %q", body)
	}
}

// TestSLOZeroWindow pins Status over an empty sampler window and over a
// window whose samples carry no query activity: OK, no verbs, window
// length summed without division.
func TestSLOZeroWindow(t *testing.T) {
	reg := NewRegistry()
	RegisterBaseline(reg)
	smp := NewSampler(reg.Snapshot, 4, 0)
	slo := NewSLO(smp, SLOConfig{P99Ticks: 1})
	if st := slo.Status(); !st.OK || len(st.Verbs) != 0 || st.Window != 0 {
		t.Errorf("empty window Status = %+v, want ok/empty", st)
	}
	smp.Tick(0) // duplicate instant: Dur clamps to 0
	smp.Tick(0)
	st := slo.Status()
	if !st.OK || st.Window != 0 {
		t.Errorf("zero-dur window Status = %+v", st)
	}
	var out bytes.Buffer
	if err := st.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	if out.String() != "ok\n" {
		t.Errorf("zero-traffic /healthz body = %q, want %q", out.String(), "ok\n")
	}
}

// TestSLOErrorOnlyVerb pins the rate asymmetry fix: a verb whose window
// carries errors or breaches but zero recorded statements saturates
// both burn rates to 1 instead of dividing by zero (or silently
// reporting a healthy 0).
func TestSLOErrorOnlyVerb(t *testing.T) {
	reg := NewRegistry()
	smp := NewSampler(reg.Snapshot, 4, 0)
	reg.Counter(LabeledName(MQueryVerbErrors, "compute")).Inc()
	reg.Counter(LabeledName(MQueryBreaches, "compute")).Inc()
	smp.Tick(10)
	slo := NewSLO(smp, SLOConfig{MaxErrorRate: 0.5, MaxBreachRate: 0.5})
	st := slo.Status()
	if len(st.Verbs) != 1 {
		t.Fatalf("verbs = %+v, want one", st.Verbs)
	}
	v := st.Verbs[0]
	if v.ErrorRate != 1 || v.BreachRate != 1 {
		t.Errorf("zero-denominator rates = %g/%g, want 1/1", v.ErrorRate, v.BreachRate)
	}
	if st.OK {
		t.Error("burning verb with zero denominator reported OK")
	}
}

// TestSLOWallPercentiles pins the new wall-latency leg: wall
// observations re-aggregate alongside ticks, render with the wall_p*
// fields, and stay absent when no wall-owning layer feeds the verb.
func TestSLOWallPercentiles(t *testing.T) {
	reg := NewRegistry()
	smp := NewSampler(reg.Snapshot, 8, 0)
	ticks := reg.Histogram(LabeledName(MQueryTicks, "compute"), QueryTicksBounds())
	wall := reg.Histogram(LabeledName(MQueryWallUs, "compute"), WallUsBounds())
	for i := 0; i < 10; i++ {
		ticks.Observe(500)
		wall.Observe(5_000)
	}
	smp.Tick(100)
	st := NewSLO(smp, SLOConfig{}).Status()
	if len(st.Verbs) != 1 {
		t.Fatalf("verbs = %+v", st.Verbs)
	}
	v := st.Verbs[0]
	if v.WallCount != 10 {
		t.Errorf("WallCount = %d, want 10", v.WallCount)
	}
	if v.WallP50 <= 1_000 || v.WallP50 > 10_000 {
		t.Errorf("WallP50 = %g, want inside the 5ms bucket", v.WallP50)
	}
	var out bytes.Buffer
	if err := st.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wall_p50=") || !strings.Contains(out.String(), "wall_p99=") {
		t.Errorf("rendered SLO missing wall percentiles: %q", out.String())
	}

	// A ticks-only verb renders without the wall fields.
	reg2 := NewRegistry()
	smp2 := NewSampler(reg2.Snapshot, 8, 0)
	reg2.Histogram(LabeledName(MQueryTicks, "compute"), QueryTicksBounds()).Observe(500)
	smp2.Tick(100)
	var out2 bytes.Buffer
	if err := NewSLO(smp2, SLOConfig{}).Status().WriteText(&out2); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out2.String(), "wall_p50=") {
		t.Errorf("ticks-only verb rendered wall fields: %q", out2.String())
	}
}

// TestQuantileDegenerate pins the estimator's empty and degenerate
// inputs: empty histogram refuses, a bounds-mismatch merge (Count
// without Counts) falls back without dividing by zero.
func TestQuantileDegenerate(t *testing.T) {
	var empty HistValue
	if _, ok := empty.Quantile(0.5); ok {
		t.Error("empty histogram produced a quantile")
	}
	// Count inflated by a mismatched-bounds merge, no bucket counts.
	hv := HistValue{Count: 5, Sum: 50}
	v, ok := hv.Quantile(0.5)
	if !ok || v != 10 {
		t.Errorf("degenerate quantile = %g/%v, want mean 10", v, ok)
	}
	hv2 := HistValue{Bounds: []int64{100}, Counts: []int64{0, 0}, Count: 3, Sum: 30}
	if v, ok := hv2.Quantile(0.99); !ok || v != 100 {
		t.Errorf("zero-bucket quantile = %g/%v, want max bound 100", v, ok)
	}
}
