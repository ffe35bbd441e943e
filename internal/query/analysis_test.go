package query

import (
	"bytes"
	"strings"
	"testing"

	"statdb/internal/core"
	"statdb/internal/workload"
)

func analysisDBMS(t *testing.T) (*Executor, *bytes.Buffer) {
	t.Helper()
	d := core.New()
	if err := d.LoadRaw("people", workload.Microdata(5000, 99)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	e := NewExecutor(d, "analyst", &out)
	if err := e.Run("materialize work from people"); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	return e, &out
}

func TestParseAnalysisCommands(t *testing.T) {
	cases := map[string]Command{
		"histogram SALARY on v":         HistogramCmd{Attr: "SALARY", View: "v", Bins: 10},
		"histogram SALARY on v bins 25": HistogramCmd{Attr: "SALARY", View: "v", Bins: 25},
		"crosstab SEX RACE on v":        CrosstabCmd{RowAttr: "SEX", ColAttr: "RACE", View: "v"},
		"correlate AGE SALARY on v":     CorrelateCmd{X: "AGE", Y: "SALARY", View: "v"},
		"correlate AGE SALARY on v rank": CorrelateCmd{
			X: "AGE", Y: "SALARY", View: "v", Rank: true},
		"sample 100 from v as s":         SampleCmd{K: 100, View: "v", As: "s", Seed: 1},
		"sample 100 from v as s seed 42": SampleCmd{K: 100, View: "v", As: "s", Seed: 42},
		"rollback v to 3":                RollbackCmd{View: "v", Seq: 3},
		"advice v":                       AdviceCmd{View: "v"},
	}
	for in, want := range cases {
		got, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("Parse(%q) = %#v, want %#v", in, got, want)
		}
	}
	// Regress carries a slice; compare structurally.
	got, err := Parse("regress SALARY on AGE,RACE over v")
	if err != nil {
		t.Fatal(err)
	}
	r := got.(RegressCmd)
	if r.Y != "SALARY" || len(r.Xs) != 2 || r.Xs[1] != "RACE" || r.View != "v" {
		t.Errorf("regress = %#v", r)
	}
}

func TestParseAnalysisErrors(t *testing.T) {
	for _, bad := range []string{
		"histogram on v",
		"histogram A on v bins 0",
		"histogram A on v bins 10001", // above maxHistogramBins
		"crosstab A on v",
		"correlate A on v",
		"regress Y over v",
		"sample x from v as s",
		"sample 5 from v",
		"rollback v to -1",
		"rollback v",
		"advice",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestExecHistogram(t *testing.T) {
	e, out := analysisDBMS(t)
	if err := e.Run("histogram SALARY on work bins 5"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("histogram lines = %d:\n%s", len(lines), out.String())
	}
	if !strings.Contains(lines[0], "#") {
		t.Errorf("no bar in %q", lines[0])
	}
	// Second invocation is served from the cache (same output, no error).
	out.Reset()
	if err := e.Run("histogram SALARY on work bins 5"); err != nil {
		t.Fatal(err)
	}
}

func TestExecCrosstab(t *testing.T) {
	e, out := analysisDBMS(t)
	if err := e.Run("crosstab SEX RACE on work"); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "chi-square") || !strings.Contains(s, "total") {
		t.Errorf("crosstab output: %q", s)
	}
	// SEX and RACE are generated independently.
	if !strings.Contains(s, "independent") {
		t.Errorf("independence verdict missing: %q", s)
	}
}

func TestExecCorrelate(t *testing.T) {
	e, out := analysisDBMS(t)
	if err := e.Run("correlate AGE SALARY on work"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "correlation(AGE, SALARY)") {
		t.Errorf("output: %q", out.String())
	}
	out.Reset()
	if err := e.Run("correlate AGE SALARY on work rank"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "spearman") {
		t.Errorf("output: %q", out.String())
	}
	if err := e.Run("correlate SEX SALARY on work"); err == nil {
		t.Error("correlation over string attribute accepted")
	}
}

func TestExecRegress(t *testing.T) {
	e, out := analysisDBMS(t)
	if err := e.Run("regress SALARY on AGE over work"); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "SALARY =") || !strings.Contains(s, "*AGE") || !strings.Contains(s, "R2=") {
		t.Errorf("output: %q", s)
	}
	out.Reset()
	if err := e.Run("regress SALARY on AGE,RACE over work"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "*RACE") {
		t.Errorf("multi output: %q", out.String())
	}
	if err := e.Run("regress SALARY on NOPE over work"); err == nil {
		t.Error("missing predictor accepted")
	}
}

func TestExecSampleCreatesView(t *testing.T) {
	e, out := analysisDBMS(t)
	if err := e.Run("sample 200 from work as pilot seed 7"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "200 rows") {
		t.Errorf("output: %q", out.String())
	}
	out.Reset()
	if err := e.Run("compute mean SALARY on pilot"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mean(SALARY)") {
		t.Errorf("computed on sample: %q", out.String())
	}
	// Duplicate sampled derivation rejected.
	if err := e.Run("sample 200 from work as pilot2 seed 7"); err == nil {
		t.Error("identical sample derivation accepted")
	}
}

func TestExecRollback(t *testing.T) {
	e, out := analysisDBMS(t)
	if err := e.Run("update work set SALARY = null where AGE > 70"); err != nil {
		t.Fatal(err)
	}
	if err := e.Run("update work set SALARY = null where AGE > 60"); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := e.Run("rollback work to 1"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "rolled back 1 update") {
		t.Errorf("output: %q", out.String())
	}
	out.Reset()
	if err := e.Run("history work"); err != nil {
		t.Fatal(err)
	}
	if strings.Count(out.String(), "#") != 1 {
		t.Errorf("history after rollback: %q", out.String())
	}
}

func TestExecDescribe(t *testing.T) {
	e, out := analysisDBMS(t)
	if err := e.Run("describe SALARY on work"); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"n=5000", "mean=", "median=", "q1=", "q3=", "unique="} {
		if !strings.Contains(s, want) {
			t.Errorf("describe missing %q: %q", want, s)
		}
	}
	// All eleven standing values are now cached: a repeat makes no passes.
	v, _ := e.Analyst.View("work")
	before := v.Summary().Counters().Hits
	out.Reset()
	if err := e.Run("describe SALARY on work"); err != nil {
		t.Fatal(err)
	}
	if v.Summary().Counters().Hits <= before {
		t.Error("second describe not served from cache")
	}
	if err := e.Run("describe SEX on work"); err == nil {
		t.Error("describe over string attribute accepted")
	}
	if err := e.Run("describe SALARY on missing"); err == nil {
		t.Error("describe on missing view accepted")
	}
	if _, err := Parse("describe on work"); err == nil {
		t.Error("describe without attribute accepted")
	}
}

func TestExecTTest(t *testing.T) {
	e, out := analysisDBMS(t)
	// SEX does not influence SALARY in the generator: no difference.
	if err := e.Run("ttest SALARY by SEX on work"); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "t=") || !strings.Contains(s, "p=") {
		t.Fatalf("ttest output: %q", s)
	}
	if !strings.Contains(s, "no significant difference") {
		t.Errorf("independent grouping flagged significant: %q", s)
	}
	// Manufacture a real difference, then the test must flag it.
	if err := e.Run("update work set SALARY = 250000 where SEX = 'M' and AGE > 35"); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := e.Run("ttest SALARY by SEX on work"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "SIGNIFICANT") {
		t.Errorf("induced difference missed: %q", out.String())
	}
	// Errors.
	if err := e.Run("ttest SALARY by RACE on work"); err == nil {
		t.Error("5-group attribute accepted")
	}
	if err := e.Run("ttest SALARY by NOPE on work"); err == nil {
		t.Error("missing group attribute accepted")
	}
	if err := e.Run("ttest NOPE by SEX on work"); err == nil {
		t.Error("missing attribute accepted")
	}
	if _, err := Parse("ttest SALARY on work"); err == nil {
		t.Error("ttest without group accepted")
	}
}

func TestExecFrequencies(t *testing.T) {
	e, out := analysisDBMS(t)
	if err := e.Run("frequencies SEX on work"); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "M") || !strings.Contains(s, "F") {
		t.Errorf("frequencies output: %q", s)
	}
	if err := e.Run("frequencies SALARY on work"); err == nil {
		t.Error("frequencies over numeric attribute accepted")
	}
	if err := e.Run("frequencies NOPE on work"); err == nil {
		t.Error("frequencies over missing attribute accepted")
	}
}

func TestExecAdvice(t *testing.T) {
	e, out := analysisDBMS(t)
	if err := e.Run("compute mean SALARY on work"); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := e.Run("advice work"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "recommended layout") {
		t.Errorf("output: %q", out.String())
	}
}

func TestExecAnalysisOnMissingView(t *testing.T) {
	e, _ := analysisDBMS(t)
	for _, cmd := range []string{
		"histogram X on missing",
		"crosstab A B on missing",
		"correlate A B on missing",
		"regress Y on X over missing",
		"sample 5 from missing as s",
		"rollback missing to 0",
		"advice missing",
	} {
		if err := e.Run(cmd); err == nil {
			t.Errorf("Run(%q) accepted", cmd)
		}
	}
}
