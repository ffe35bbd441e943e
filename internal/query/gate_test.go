package query

import (
	"errors"
	"testing"

	"statdb/internal/core"
	"statdb/internal/obs"
)

// TestExecutorGated drives statements through a DBMS with an admission
// gate installed: healthy statements admit and count, a spent session
// quota sheds at the door with the typed sentinel, and removing the
// gate restores ungated execution.
func TestExecutorGated(t *testing.T) {
	d, e, _ := obsFixture(t)
	d.SetGate(core.NewGate(core.GateConfig{Slots: 1, Queue: 4, Reg: d.MetricsRegistry()}))

	if err := e.Run("compute mean SALARY on mv"); err != nil {
		t.Fatalf("gated statement failed: %v", err)
	}
	snap := d.Metrics()
	if got := snap.Counters[obs.MGateAdmitted]; got == 0 {
		t.Error("admitted counter did not move under the gate")
	}
	if snap.Gauges[obs.MGateInflight] != 0 {
		t.Errorf("inflight gauge = %d after statement finished", snap.Gauges[obs.MGateInflight])
	}

	// A session whose quota is spent is shed before the engine runs.
	spent := obs.NewBudget(10, 0)
	spent.ChargeTicks(11)
	e.SetSessionBudget(spent)
	before := d.Metrics().Counters[obs.MQueryStatements]
	err := e.Run("compute mean SALARY on mv")
	if !errors.Is(err, core.ErrShed) {
		t.Fatalf("spent session err = %v, want ErrShed", err)
	}
	var shed *core.ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("spent session err = %T, want *core.ShedError", err)
	}
	// The statement was still counted (and its failure too).
	if after := d.Metrics().Counters[obs.MQueryStatements]; after != before+1 {
		t.Errorf("statements %d -> %d, want +1", before, after)
	}
	e.SetSessionBudget(nil)

	d.SetGate(nil)
	if err := e.Run("compute mean SALARY on mv"); err != nil {
		t.Fatalf("ungated statement failed: %v", err)
	}
}

// TestRunMeasured pins the measurement contract the load driver's
// conservation checks rely on: the verb, a tick total matching the
// per-verb histogram delta, and zero ticks for a shed statement.
func TestRunMeasured(t *testing.T) {
	d, e, _ := obsFixture(t)
	histName := obs.LabeledName(obs.MQueryTicks, "compute")
	before := d.Metrics().Histograms[histName].Sum
	m, err := e.RunMeasured("compute mean SALARY on mv")
	if err != nil {
		t.Fatal(err)
	}
	if m.Verb != "compute" {
		t.Errorf("verb = %q, want compute", m.Verb)
	}
	if m.Ticks <= 0 {
		t.Errorf("ticks = %d, want > 0 for a cache miss", m.Ticks)
	}
	if m.Pages <= 0 {
		t.Errorf("pages = %d, want > 0 for a cache miss", m.Pages)
	}
	after := d.Metrics().Histograms[histName].Sum
	if after-before != m.Ticks {
		t.Errorf("histogram delta %d != measured ticks %d: attribution leak", after-before, m.Ticks)
	}

	// explain and profile report the verb they wrap, whose histogram
	// their ticks land in (each runs on a fresh fixture, as a first read
	// that charges ticks); stats reports itself.
	for _, stmt := range []string{"explain compute mean SALARY on mv", "profile compute mean SALARY on mv"} {
		d, e, _ := obsFixture(t)
		m, err := e.RunMeasured(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if m.Verb != "compute" {
			t.Errorf("%s: verb = %q, want compute", stmt, m.Verb)
		}
		if sum := d.Metrics().Histograms[histName].Sum; m.Ticks <= 0 || sum != m.Ticks {
			t.Errorf("%s: histogram sum %d, measured ticks %d", stmt, sum, m.Ticks)
		}
	}
	if m, err := e.RunMeasured("stats"); err != nil || m.Verb != "stats" {
		t.Errorf("stats: verb = %q, err %v; want stats", m.Verb, err)
	}

	// A shed statement measures zero ticks: nothing ran.
	d.SetGate(core.NewGate(core.GateConfig{Slots: 1, Queue: 0, Reg: d.MetricsRegistry()}))
	spent := obs.NewBudget(1, 0)
	spent.ChargeTicks(2)
	e.SetSessionBudget(spent)
	m, err = e.RunMeasured("compute mean SALARY on mv")
	if !errors.Is(err, core.ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	if m.Ticks != 0 {
		t.Errorf("shed statement measured %d ticks, want 0", m.Ticks)
	}
}
