package load

import (
	"bytes"
	"testing"

	"statdb/internal/core"
	"statdb/internal/obs"
	"statdb/internal/query"
	"statdb/internal/workload"
)

// fixture builds a DBMS with a materialized microdata view, ready for
// in-process load.
func fixture(t *testing.T) *core.DBMS {
	t.Helper()
	d := core.New()
	d.SetParallelism(2)
	if err := d.LoadRaw("micro", workload.Microdata(2048, 12)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	e := query.NewExecutor(d, "analyst", &out)
	if err := e.Run("materialize mv from micro project AGE,SALARY"); err != nil {
		t.Fatal(err)
	}
	return d
}

func baseCfg(d *core.DBMS, sessions, ops int) Config {
	return Config{
		Sessions:   sessions,
		Ops:        ops,
		Seed:       7,
		View:       "mv",
		Attrs:      []string{"AGE", "SALARY"},
		NewSession: InProcess(d, "analyst"),
	}
}

func run(t *testing.T, cfg Config) *Report {
	t.Helper()
	drv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := drv.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestDriverDeterministic pins the reproducibility contract: two runs
// of the same config over fresh engines produce identical statements,
// ticks, and answer digests — with no Clock, nothing wall-derived
// exists to differ.
func TestDriverDeterministic(t *testing.T) {
	a := run(t, baseCfg(fixture(t), 4, 20))
	b := run(t, baseCfg(fixture(t), 4, 20))
	if a.Digest != b.Digest || a.Ticks != b.Ticks || a.Statements != b.Statements {
		t.Errorf("reruns diverged: %+v vs %+v", a, b)
	}
	for i := range a.PerSession {
		if a.PerSession[i].Digest != b.PerSession[i].Digest {
			t.Errorf("session %d digest diverged", i)
		}
	}
	if a.ElapsedUs != 0 || a.Throughput != 0 || a.P99Us != 0 {
		t.Errorf("clockless run reported wall results: %+v", a)
	}
}

// TestDriverAnswersInvariantUnderConcurrency is the heart of E19's
// correctness claim: session k's answer digest is bit-identical whether
// it runs alone or beside others, because reads commute and the gate
// only reorders, never rewrites. Runs under -race in CI.
func TestDriverAnswersInvariantUnderConcurrency(t *testing.T) {
	const ops = 15
	concurrent := run(t, baseCfg(fixture(t), 6, ops))
	for i, sr := range concurrent.PerSession {
		// Serial reference: a fresh engine replays only session i's
		// exact statement stream through the same session loop.
		d := fixture(t)
		cfg := baseCfg(d, 1, ops)
		stmts, err := cfg.Trace(i)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		e := query.NewExecutor(d, "analyst", &buf)
		st := &sessionState{res: SessionResult{ID: SessionID(i)}, tracer: obs.NewTracer()}
		drv := &Driver{cfg: cfg}
		drv.runSession(i, st, stmts, obs.NewBudget(0, 0), func(stmt string) (string, query.Measured, error) {
			buf.Reset()
			m, errr := e.RunMeasured(stmt)
			return buf.String(), m, errr
		})
		if st.res.Digest != sr.Digest {
			t.Errorf("session %d: concurrent digest %x != serial %x", i, sr.Digest, st.res.Digest)
		}
		// Ticks are deliberately NOT compared: under concurrency another
		// session may have warmed the Summary DB first, turning this
		// session's recompute into a cache hit. Answers are invariant;
		// costs are shared — that sharing is the paper's thesis.
	}
}

// TestDriverTickConservation is the cross-session conservation hammer:
// many sessions through Executor + ProfileRing + SLO machinery at
// once, then the ledgers must agree exactly — no lost or
// double-counted ticks. Meaningful under -race (CI runs it there).
func TestDriverTickConservation(t *testing.T) {
	d := fixture(t)
	before := d.Metrics()
	rep := run(t, baseCfg(d, 8, 25))
	after := d.Metrics()

	if rep.Statements != 8*25 {
		t.Fatalf("statements = %d, want %d", rep.Statements, 8*25)
	}
	if rep.Errors != 0 || rep.Shed != 0 {
		t.Fatalf("unexpected failures: %+v", rep)
	}

	// 1. Per-session measured ticks sum to the per-verb SLO histograms'
	// delta, and their observation counts to the statements: what
	// sessions saw is what the registry recorded, each statement once.
	var histDelta, histCount int64
	for name, hv := range after.Histograms {
		if _, ok := labeledVerb(name); ok {
			histDelta += hv.Sum - before.Histograms[name].Sum
			histCount += hv.Count - before.Histograms[name].Count
		}
	}
	if histDelta != rep.Ticks {
		t.Errorf("query.ticks histograms moved %d, sessions measured %d", histDelta, rep.Ticks)
	}
	if histCount != rep.Statements {
		t.Errorf("query.ticks histograms observed %d statements, want %d", histCount, rep.Statements)
	}

	// 2. The stitched span tree carries the same total: per-session
	// attribution through the adopted tracers conserves too.
	if rep.Root == nil {
		t.Fatal("no stitched root")
	}
	if got := obs.FoldSpan(rep.Root).Ticks; got != rep.Ticks {
		t.Errorf("stitched tree folds to %d ticks, sessions measured %d", got, rep.Ticks)
	}

	// 3. Every statement was admitted exactly once: the gate's delta
	// equals the statement count, and its inflight gauge drained.
	if got := after.Counters[obs.MGateAdmitted] - before.Counters[obs.MGateAdmitted]; got != rep.Statements {
		t.Errorf("gate admitted %d, want %d", got, rep.Statements)
	}
	if after.Gauges[obs.MGateInflight] != 0 {
		t.Error("gate inflight gauge did not drain")
	}
}

// labeledVerb splits "query.ticks.<verb>" names.
func labeledVerb(name string) (string, bool) {
	const fam = "query.ticks."
	if len(name) > len(fam) && name[:len(fam)] == fam {
		return name[len(fam):], true
	}
	return "", false
}

// TestDriverSessionQuotaSheds gives each session a quota far below its
// workload: once spent, the gate sheds the rest at the door, counted
// as shed (not engine errors), and the run still drains cleanly.
func TestDriverSessionQuotaSheds(t *testing.T) {
	d := fixture(t)
	cfg := baseCfg(d, 2, 12)
	cfg.SessionTicks = 1 // roughly one statement's worth, then spent
	rep := run(t, cfg)
	if rep.Shed == 0 {
		t.Fatalf("no statements shed under a 1-tick session quota: %+v", rep)
	}
	if rep.Statements != 2*12 {
		t.Errorf("statements = %d, want all issued", rep.Statements)
	}
	if got := d.Metrics().Counters[obs.MGateShed]; got != rep.Shed {
		t.Errorf("query.wait_shed = %d, report says %d", got, rep.Shed)
	}
}

// TestDriverOpenLoopWallReport exercises the open arrival model with a
// real clock: the wall fields populate.
func TestDriverOpenLoopWallReport(t *testing.T) {
	d := fixture(t)
	cfg := baseCfg(d, 3, 6)
	cfg.Arrival = "open"
	cfg.RateUs = 100
	cfg.Clock = NewClock()
	rep := run(t, cfg)
	if rep.ElapsedUs <= 0 || rep.Throughput <= 0 {
		t.Errorf("wall report empty: %+v", rep)
	}
	if rep.P50Us > rep.P99Us {
		t.Errorf("p50 %d > p99 %d", rep.P50Us, rep.P99Us)
	}
}

// TestDriverConfigValidation pins New's rejections.
func TestDriverConfigValidation(t *testing.T) {
	d := fixture(t)
	base := baseCfg(d, 1, 1)
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"no sessions", func(c *Config) { c.Sessions = 0 }},
		{"no ops", func(c *Config) { c.Ops = 0 }},
		{"no sink", func(c *Config) { c.NewSession = nil }},
		{"no view", func(c *Config) { c.View = "" }},
		{"bad arrival", func(c *Config) { c.Arrival = "poisson" }},
	} {
		cfg := base
		tc.mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: config accepted", tc.name)
		}
	}
}
