package query

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"statdb/internal/obs"
)

// TestBudgetAbort is the enforcement acceptance test: a statement whose
// scan blows the tick ceiling aborts with the typed *obs.BudgetError
// and the incident lands in the event log at warn severity.
func TestBudgetAbort(t *testing.T) {
	d, e, _ := obsFixture(t)
	var logBuf bytes.Buffer
	log, err := obs.NewEventLog(obs.EventLogConfig{W: &logBuf})
	if err != nil {
		t.Fatal(err)
	}
	e.SetEventLog(log)

	d.SetQueryBudget(100, 0) // far below the ~5k-tick store scan
	err = e.Run("compute mean SALARY on mv")
	var be *obs.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("Run = %v, want *obs.BudgetError", err)
	}
	if be.Resource != "ticks" || be.Limit != 100 {
		t.Errorf("budget error %+v, want ticks limit 100", be)
	}
	line := logBuf.String()
	if !strings.Contains(line, `"sev":"warn"`) || !strings.Contains(line, "budget exceeded") {
		t.Errorf("event log missed the breach: %s", line)
	}

	// Lifting the budget lets the same statement through, proving the
	// breach neither latched globally nor poisoned the cache.
	d.SetQueryBudget(0, 0)
	if err := e.Run("compute mean SALARY on mv"); err != nil {
		t.Fatalf("after lifting budget: %v", err)
	}
}

// TestBudgetPages exercises the page ceiling: the transposed-store scan
// reads pages through the buffer pool, and a one-page allowance stops
// it.
func TestBudgetPages(t *testing.T) {
	d, e, _ := obsFixture(t)
	d.SetQueryBudget(0, 1)
	err := e.Run("compute mean SALARY on mv")
	var be *obs.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("Run = %v, want *obs.BudgetError", err)
	}
	if be.Resource != "pages" || be.Limit != 1 {
		t.Errorf("budget error %+v, want pages limit 1", be)
	}
}

// TestBudgetCachedHitSurvives pins the useful asymmetry: a budget too
// small for a recompute still admits a cache hit, because a hit charges
// almost nothing — the paper's economics in one test.
func TestBudgetCachedHitSurvives(t *testing.T) {
	d, e, _ := obsFixture(t)
	if err := e.Run("compute mean SALARY on mv"); err != nil { // warm the cache, no budget
		t.Fatal(err)
	}
	d.SetQueryBudget(100, 0)
	if err := e.Run("compute mean SALARY on mv"); err != nil {
		t.Errorf("cache hit blew a 100-tick budget: %v", err)
	}
}

// TestEventLogGolden pins the structured per-query records over the
// deterministic fixture: a miss recomputed in parallel, a cache hit, an
// incremental update, and a failing statement — byte-for-byte, because
// every field is derived from the cost model, never the wall clock.
func TestEventLogGolden(t *testing.T) {
	_, e, _ := obsFixture(t)
	var logBuf bytes.Buffer
	log, err := obs.NewEventLog(obs.EventLogConfig{W: &logBuf, SlowTicks: 100000})
	if err != nil {
		t.Fatal(err)
	}
	e.SetEventLog(log)
	// Attribute the stream to a simulated session so the golden pins the
	// session id and 1-based per-session sequence numbers.
	e.SetSession("s01")
	for _, stmt := range []string{
		"compute mean SALARY on mv",                   // miss: scan + parallel fold
		"compute mean SALARY on mv",                   // hit
		"update mv set SALARY = 12345 where AGE = 30", // incremental maintenance
		"compute mean NOPE on mv",                     // error record
	} {
		_ = e.Run(stmt)
	}
	checkGolden(t, "events.golden", logBuf.String())
}
