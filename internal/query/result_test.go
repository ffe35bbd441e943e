package query

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"statdb/internal/core"
	"statdb/internal/obs"
	"statdb/internal/stats"
	"statdb/internal/workload"
)

// TestResultsFollowEveryAttribute: a cached correlation or regression
// answers, after an update of an attribute other than its first, what a
// view that never cached it answers after the same update.
func TestResultsFollowEveryAttribute(t *testing.T) {
	for _, tc := range []struct{ stmt, update string }{
		{"correlate AGE SALARY on work", "update work set SALARY = 1000000 where AGE > 50"},
		{"correlate AGE SALARY on work rank", "update work set SALARY = 1000000 where AGE > 50"},
		{"correlate SALARY AGE on work", "update work set AGE = 1 where SALARY > 40000"},
		{"regress SALARY on AGE over work", "update work set AGE = 1 where SALARY > 40000"},
		{"regress SALARY on AGE,RACE over work", "update work set RACE = 9 where AGE > 40"},
	} {
		cached, out := analysisDBMS(t)
		if err := cached.Run(tc.stmt); err != nil {
			t.Fatal(err)
		}
		before := out.String()
		if err := cached.Run(tc.update); err != nil {
			t.Fatal(err)
		}
		out.Reset()
		if err := cached.Run(tc.stmt); err != nil {
			t.Fatal(err)
		}
		fresh, want := analysisDBMS(t)
		if err := fresh.Run(tc.update); err != nil {
			t.Fatal(err)
		}
		want.Reset()
		if err := fresh.Run(tc.stmt); err != nil {
			t.Fatal(err)
		}
		if out.String() != want.String() {
			t.Errorf("%s after %s: %q, a fresh view answers %q (before the update %q)", tc.stmt, tc.update, out, want, before)
		}
		if out.String() == before {
			t.Errorf("%s: the update left the answer %q unchanged", tc.stmt, before)
		}
	}
}

// TestResultStaleRefillCounts: the refill of a result an update left
// stale is counted as a stale refill, not as a miss.
func TestResultStaleRefillCounts(t *testing.T) {
	e, _ := analysisDBMS(t)
	for _, stmt := range []string{"histogram SALARY on work bins 5", "update work set SALARY = 1 where AGE > 60"} {
		if err := e.Run(stmt); err != nil {
			t.Fatal(err)
		}
	}
	before := e.DBMS.Metrics()
	if err := e.Run("histogram SALARY on work bins 5"); err != nil {
		t.Fatal(err)
	}
	after := e.DBMS.Metrics()
	for name, want := range map[string]int64{obs.MSummaryStaleRefill: 1, obs.MSummaryMisses: 0, obs.MSummaryHits: 0} {
		if got := after.Counters[name] - before.Counters[name]; got != want {
			t.Errorf("%s moved by %d, want %d", name, got, want)
		}
	}
}

// TestCorrelateRacesUpdates runs correlate in one session while another
// updates its second attribute; once both are done, the cached answer
// equals a recompute from the columns. Run it under -race.
func TestCorrelateRacesUpdates(t *testing.T) {
	reader, _ := analysisDBMS(t)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if err := reader.Run("correlate AGE SALARY on work"); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		writer := NewExecutor(reader.DBMS, "analyst", &bytes.Buffer{})
		for i := 0; i < 40; i++ {
			if err := writer.Run(fmt.Sprintf("update work set SALARY = %d where AGE > %d", 1000*i, 20+i)); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := reader.Run("correlate AGE SALARY on work"); err != nil {
		t.Fatal(err)
	}
	v, err := reader.Analyst.View("work")
	if err != nil {
		t.Fatal(err)
	}
	got, ok := v.Summary().Lookup("correlation", "AGE", "SALARY")
	xs, xv, _ := v.Column("AGE")
	ys, yv, _ := v.Column("SALARY")
	want, _ := stats.Correlation(xs, ys, xv, yv)
	if !ok || got.Scalar != want {
		t.Errorf("cached correlation %v (fresh %v), recompute %v", got.Scalar, ok, want)
	}
}

// TestResultHitAllocatesAsAScalarHit: a repeated correlate, answered
// from the Summary Database, allocates no more than a repeated compute.
func TestResultHitAllocatesAsAScalarHit(t *testing.T) {
	e, out := analysisDBMS(t)
	allocs := func(stmt string) float64 {
		if err := e.Run(stmt); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			out.Reset()
			if err := e.Run(stmt); err != nil {
				t.Fatal(err)
			}
		})
	}
	corr, mean := allocs("correlate AGE SALARY on work"), allocs("compute mean SALARY on work")
	t.Logf("allocations per repeat: correlate %v, compute %v", corr, mean)
	if corr > mean {
		t.Errorf("a repeated correlate allocates %v times, a repeated compute %v", corr, mean)
	}
}

// TestResultReadsEachAttributeOnce: a tuple that names an attribute twice
// (correlate A A, a regress naming Y among its predictors) reads that
// column once and answers as if it had read it at every position.
func TestResultReadsEachAttributeOnce(t *testing.T) {
	d := core.New()
	census, err := workload.Census(workload.DefaultCensusSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.LoadRaw("census80", census); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	e := NewExecutor(d, "analyst", &out)
	if err := e.Run("materialize mv from census80 project POPULATION,AVE_SALARY"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		stmt, answer string
		reads        int64
	}{
		{"correlate POPULATION POPULATION on mv", "correlation(POPULATION, POPULATION) = 1.0000", 1},
		{"regress POPULATION on POPULATION over mv", "(R2=1.0000, n=2160)", 1},
		{"regress POPULATION on POPULATION,AVE_SALARY over mv", "(R2=1.0000, n=2160)", 2},
		{"regress AVE_SALARY on POPULATION,AVE_SALARY over mv", "(R2=1.0000, n=2160)", 2},
	} {
		before := d.Metrics()
		out.Reset()
		if err := e.Run("explain " + tc.stmt); err != nil {
			t.Fatal(err)
		}
		passes := d.Metrics().Counters[obs.MSummaryPasses] - before.Counters[obs.MSummaryPasses]
		scans := int64(strings.Count(out.String(), " scan [rows="))
		if passes != tc.reads || scans != tc.reads {
			t.Errorf("%s: %d passes and %d scan spans, want %d of each:\n%s", tc.stmt, passes, scans, tc.reads, out.String())
		}
		if !strings.Contains(out.String(), tc.answer) {
			t.Errorf("%s: answer lacks %q:\n%s", tc.stmt, tc.answer, out.String())
		}
	}
}
