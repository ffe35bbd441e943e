package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"statdb/internal/core"
)

var tiny = options{sc: scales["tiny"], setups: 1, budget: 20 * time.Millisecond}

// lastLine runs the command and decodes the driver's result line.
func lastLine(t *testing.T, args ...string) driverResult {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(append(args, "-out", t.TempDir()), &stdout, &stderr); code != 0 {
		t.Fatalf("run %v: exit %d: %s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res driverResult
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("run %v: last line is not a result: %v", args, err)
	}
	return res
}

// Every workload prints every declared metric exactly once, with its
// unit, and fails nothing — untraced (end-to-end) and traced (per-layer).
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			res := lastLine(t, "-workload", w.name, "-scale", "tiny", "-seconds", "0.05", "-trace", fmt.Sprint(trace))
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics printed, %d declared", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if got, ok := res.Metrics[d.name]; !ok || got.Unit != d.unit {
					t.Errorf("%s trace=%d: metric %s: printed %+v (present %v), want unit %q", w.name, trace, d.name, got, ok, d.unit)
				}
			}
			if trace == 0 {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s reads %v; it must never be 0", w.name, name, m.Value)
					}
				}
			}
		}
	}
}

// Two runs of one seed issue the same statements and move the registry
// by exactly the same counts; a second seed changes the inputs (data
// and statement order) while — rounds being fixed multisets — the
// statement count stays put.
func TestCountsRepeatExactly(t *testing.T) {
	exact := []string{"summary.hits", "summary.misses", "summary.stale_refill", "summary.incremental",
		"storage.page_reads", "shard.scatters", "obs.ticks_per_stmt", "core.gate_admitted"}
	for _, w := range workloads {
		a, _, _, err := tracePasses(w, 1, tiny, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		b, _, _, err := tracePasses(w, 1, tiny, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if a.Statements != b.Statements || a.Attempted != b.Attempted {
			t.Errorf("%s: statements %d/%d attempted %d/%d differ between two runs of seed 1", w.name, a.Statements, b.Statements, a.Attempted, b.Attempted)
		}
		if w.sessions == 1 {
			for _, name := range exact {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s: %s = %v then %v on the same seed", w.name, name, a.Metrics[name], b.Metrics[name])
				}
			}
		}
		x := firstRound(t, w, 1)
		if z := firstRound(t, w, 2); reflect.DeepEqual(x, z) {
			t.Errorf("%s: seeds 1 and 2 produced the same first round", w.name)
		} else if len(x) != len(z) {
			t.Errorf("%s: seeds 1 and 2 issue %d and %d statements a round", w.name, len(x), len(z))
		}
	}
}

// firstRound renders a seed's first round as "statement -> expected".
func firstRound(t *testing.T, w *workload, seed int64) []string {
	t.Helper()
	fx, err := setUp(w, seed, tiny.sc)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, list := range w.plan(fx, rand.New(rand.NewSource(planSeed(seed))))(0) {
		for _, st := range list {
			out = append(out, fmt.Sprintf("%s -> %v %v %v", st.text, st.want, st.wantDesc, st.wantHist))
		}
	}
	return out
}

// The checker must be able to fail: one answer perturbed in its last
// digit, one error and one shed are exactly three failures, so
// failed_share cannot silently read 0.
func TestOracleRejectsWhatItShould(t *testing.T) {
	fx, err := setUp(workloadByName("repeat_hot"), 1, tiny.sc)
	if err != nil {
		t.Fatal(err)
	}
	var tl tally
	for _, fn := range fns {
		st := fx.orc.computeStmt(pair{view: "V", fn: fn, attr: "F0"}, classRepeat)
		out, _, err := fx.sessions[0].run(st.text)
		tl[check(st, out, err)]++
	}
	if tl.failed() != 0 || tl.attempted() != len(fns) {
		t.Fatalf("genuine answers: %d failed of %d", tl.failed(), tl.attempted())
	}

	st := fx.orc.computeStmt(pair{view: "V", fn: "median", attr: "F0"}, classRepeat)
	out, _, err := fx.sessions[0].run(st.text)
	if err != nil {
		t.Fatal(err)
	}
	perturbed := append([]byte(nil), out...)
	digit := &perturbed[len(perturbed)-2] // the last digit, before the newline
	*digit = '0' + (*digit-'0'+1)%10
	tl[check(st, perturbed, nil)]++
	tl[check(st, nil, errors.New("view V: no attribute"))]++
	tl[check(st, nil, fmt.Errorf("gate: %w", core.ErrShed))]++
	want := tally{outcomeOK: len(fns), outcomeWrong: 1, outcomeError: 1, outcomeShed: 1}
	if tl != want {
		t.Errorf("outcomes = %v, want %v (ok, wrong, error, shed)", tl, want)
	}
	if tl.failed() != 3 {
		t.Errorf("failed = %d, want exactly 3", tl.failed())
	}

	// Moments are held to 1e-9 relative, not to equality.
	mean := fx.orc.computeStmt(pair{view: "V", fn: "mean", attr: "F0"}, classRepeat)
	if !answerOK(mean, []byte(fmt.Sprintf("mean(F0) = %g\n", mean.want*(1+1e-12)))) {
		t.Error("a mean off by 1e-12 relative was rejected")
	}
	if answerOK(mean, []byte(fmt.Sprintf("mean(F0) = %g\n", mean.want*(1+1e-6)))) {
		t.Error("a mean off by 1e-6 relative was accepted")
	}
}

// A set over all workloads prints every end-to-end metric by name,
// -check compares two sets, and the result file records the environment
// beside each run's values.
func TestSetAndCheck(t *testing.T) {
	opt := tiny
	opt.outDir = t.TempDir()
	var stdout bytes.Buffer
	first, err := runSet(1, opt, 1, false, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	second, err := runSet(1, opt, 1, false, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	if first.exitCode() != 0 || second.exitCode() != 0 {
		t.Errorf("a tiny set failed statements:\n%s", stdout.String())
	}
	// Bounds are for full-size runs; at tiny scale a metric may well come
	// out unresolved, so only the comparison's coverage is checked.
	compareSets(first, second, &stdout)
	for _, w := range workloads {
		for _, d := range endToEnd {
			for _, prefix := range []string{"", "check "} {
				if !strings.Contains(stdout.String(), fmt.Sprintf("%s%-15s %-16s", prefix, w.name, d.name)) {
					t.Errorf("%q line missing for %s on %s", prefix, d.name, w.name)
				}
			}
		}
	}
	rep := report{Env: environment(1, opt.sc), Sets: []*set{first, second}}
	if err := rep.write(opt.outDir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(opt.outDir + "/result.json")
	if err != nil {
		t.Fatal(err)
	}
	var back report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Sets) != 2 || back.Env.GoVersion == "" || back.Env.GOMAXPROCS < 1 || back.Env.NProc < 1 || back.Env.Commit == "" {
		t.Errorf("result file: %d sets, env %+v", len(back.Sets), back.Env)
	}
}

// BENCHMARK.json and the binary declare the same workloads and metrics.
func TestBenchmarkJSONMatchesTheBinary(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.Paths, []string{"benchmark"}) || decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", decl.Paths, decl.RunSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the binary", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, binary has %s: %s", i, decl.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	compare := func(kind string, declared []metric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d declared, %d in the binary", kind, len(declared), len(defs))
		}
		for i, d := range defs {
			m := declared[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: declared %+v, binary has %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound != d.bound || d.bound <= 0 || d.bound > 0.25)) {
				t.Errorf("%s %s: bound %v against %v", kind, d.name, m.Bound, d.bound)
			}
		}
	}
	compare("end_to_end", decl.EndToEnd, endToEnd, true)
	compare("per_layer", decl.PerLayer, perLayer, false)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
}
