package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the SARIF golden file")

// fixture returns the -root argument for one analysis fixture tree.
func fixture(name string) string {
	return filepath.Join("..", "..", "internal", "analysis", "testdata", "src", name)
}

// TestFixturesExitNonzero is the acceptance check: the driver exits 1
// with a deterministic finding on every fixture package.
func TestFixturesExitNonzero(t *testing.T) {
	for _, name := range []string{"obsconfine", "nopanic", "determinism", "sentinel", "goroutine", "metricnames", "suppress", "lockconfine", "chargetrack", "errorflow", "testonly"} {
		var out, errOut bytes.Buffer
		code := realMain([]string{"-root", fixture(name), "./..."}, &out, &errOut)
		if code != 1 {
			t.Errorf("%s: exit %d, want 1 (stderr: %s)", name, code, errOut.String())
		}
		if !strings.Contains(out.String(), ": [") {
			t.Errorf("%s: no findings printed:\n%s", name, out.String())
		}
	}
}

// TestRepoTreeExitZero runs the driver over the real module.
func TestRepoTreeExitZero(t *testing.T) {
	var out, errOut bytes.Buffer
	code := realMain([]string{"-root", filepath.Join("..", ".."), "./..."}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d on the repo tree, want 0\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "statdb-vet: ok") {
		t.Errorf("missing ok line:\n%s", out.String())
	}
}

// TestJSONOutput checks the -json flag emits one valid JSON object per
// finding with the stable field set.
func TestJSONOutput(t *testing.T) {
	var out, errOut bytes.Buffer
	code := realMain([]string{"-root", fixture("nopanic"), "-json", "./..."}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) == 0 {
		t.Fatal("no JSONL output")
	}
	for _, ln := range lines {
		var f struct {
			File string `json:"file"`
			Line int    `json:"line"`
			Col  int    `json:"col"`
			Rule string `json:"rule"`
			Msg  string `json:"msg"`
		}
		if err := json.Unmarshal([]byte(ln), &f); err != nil {
			t.Fatalf("bad JSONL line %q: %v", ln, err)
		}
		if f.File == "" || f.Line == 0 || f.Rule == "" || f.Msg == "" {
			t.Errorf("incomplete finding: %q", ln)
		}
	}
}

// TestRulesFlag lists the contracts.
func TestRulesFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := realMain([]string{"-rules"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	for _, id := range []string{"obs-confine", "no-panic", "determinism", "sentinel-errors", "goroutine-confine", "metric-names"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("-rules output missing %s:\n%s", id, out.String())
		}
	}
}

// TestBadRootExitTwo pins the load-error exit code.
func TestBadRootExitTwo(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := realMain([]string{"-root", fixture("no-such-fixture"), "./..."}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestParseFailureExitTwo: a tree with a syntax error is a load
// problem — the driver prints the parse error and exits 2, it does not
// panic and does not report findings.
func TestParseFailureExitTwo(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "bad")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte("package bad\n\nfunc F( {\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := realMain([]string{"-root", root, "./..."}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if errOut.Len() == 0 {
		t.Error("no parse diagnostic on stderr")
	}
}

// TestBadFormatExitTwo pins the usage-error path for -format.
func TestBadFormatExitTwo(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := realMain([]string{"-format", "xml"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown -format") {
		t.Errorf("missing usage diagnostic: %s", errOut.String())
	}
}

// TestSARIFGolden runs -format sarif over the errorflow fixture and
// compares the whole document byte for byte (regenerate with
// go test ./cmd/statdb-vet -run SARIF -update).
func TestSARIFGolden(t *testing.T) {
	var out, errOut bytes.Buffer
	code := realMain([]string{"-root", fixture("errorflow"), "-format", "sarif", "./..."}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errOut.String())
	}
	golden := filepath.Join("testdata", "errorflow.sarif.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("SARIF output differs from golden:\n--- got ---\n%s\n--- want ---\n%s", out.String(), want)
	}
	// Sanity beyond byte equality: the document is valid JSON and the
	// run carries every rule plus at least one result.
	var doc struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if doc.Version != "2.1.0" || len(doc.Runs) != 1 {
		t.Fatalf("unexpected SARIF shape: version=%q runs=%d", doc.Version, len(doc.Runs))
	}
	run := doc.Runs[0]
	if run.Tool.Driver.Name != "statdb-vet" || len(run.Tool.Driver.Rules) == 0 {
		t.Errorf("driver block incomplete: %+v", run.Tool.Driver)
	}
	if len(run.Results) == 0 {
		t.Error("no results for a fixture with findings")
	}
	for _, res := range run.Results {
		if res.RuleID != "error-flow" {
			t.Errorf("unexpected ruleId %q for the errorflow fixture", res.RuleID)
		}
	}
}
