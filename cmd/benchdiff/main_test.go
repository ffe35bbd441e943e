package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"statdb/internal/bench"
)

func table() *bench.Table {
	return &bench.Table{
		ID:     "EX",
		Title:  "example",
		Header: []string{"config", "ticks", "p50_us", "shed", "answers"},
		Rows: [][]string{
			{"base", "1024", "55123", "0", "yes"},
			{"wide", "2048", "83999", "12", "yes"},
		},
		Finding: "all good",
	}
}

func TestDiffTablesClean(t *testing.T) {
	committed, fresh := table(), table()
	// Noisy columns may move arbitrarily without a finding.
	fresh.Rows[0][2] = "99999999"
	fresh.Rows[1][3] = "3"
	if problems := diffTables(committed, fresh); len(problems) != 0 {
		t.Errorf("clean diff reported: %v", problems)
	}
}

func TestDiffTablesCatches(t *testing.T) {
	for name, tc := range map[string]struct {
		mut  func(fresh *bench.Table)
		want string
	}{
		"tick drift":      {func(f *bench.Table) { f.Rows[0][1] = "1100" }, "tolerance"},
		"text change":     {func(f *bench.Table) { f.Rows[0][4] = "NO" }, `"NO"`},
		"numeric to text": {func(f *bench.Table) { f.Rows[1][1] = "n/a" }, "shape changed"},
		"noisy shape":     {func(f *bench.Table) { f.Rows[0][2] = "n/a" }, "shape changed"},
		"row loss":        {func(f *bench.Table) { f.Rows = f.Rows[:1] }, "row count"},
		"header change":   {func(f *bench.Table) { f.Header[1] = "cells" }, "header changed"},
		"fresh claim":     {func(f *bench.Table) { f.Finding = "x [CLAIM FAILED: y]" }, "fresh run reports"},
	} {
		fresh := table()
		tc.mut(fresh)
		problems := diffTables(table(), fresh)
		if len(problems) == 0 {
			t.Errorf("%s: not caught", name)
			continue
		}
		if !strings.Contains(strings.Join(problems, "\n"), tc.want) {
			t.Errorf("%s: problems %v lack %q", name, problems, tc.want)
		}
	}
}

func TestDiffTablesToleranceHolds(t *testing.T) {
	fresh := table()
	fresh.Rows[0][1] = "1030" // +0.6% on 1024
	if problems := diffTables(table(), fresh); len(problems) != 0 {
		t.Errorf("within-tolerance drift reported: %v", problems)
	}
	// A committed zero must stay zero: no tolerance scales from it.
	fresh = table()
	fresh.Rows[0][1] = "0"
	committed := table()
	committed.Rows[0][1] = "0"
	fresh2 := table()
	fresh2.Rows[0][1] = "1"
	if problems := diffTables(committed, fresh); len(problems) != 0 {
		t.Errorf("zero==zero reported: %v", problems)
	}
	if problems := diffTables(committed, fresh2); len(problems) == 0 {
		t.Error("zero -> nonzero not caught")
	}
}

// TestNoisyColumn pins the structural-only set to E19's load-driver
// columns: a wall-clock column anywhere else is held to tolerance, so it
// fails the diff instead of passing structurally.
func TestNoisyColumn(t *testing.T) {
	for _, h := range []string{"shed", "throughput/s", "p50_us", "p99_us"} {
		if !noisyColumn(h) {
			t.Errorf("%q not classified noisy", h)
		}
	}
	for _, h := range []string{"ticks", "rows", "speedup", "tick speedup", "sessions", "answers match",
		"ns/op", "row ns/op", "overhead", "wall speedup", "elapsed"} {
		if noisyColumn(h) {
			t.Errorf("%q wrongly classified noisy", h)
		}
	}
}

func TestCellSummary(t *testing.T) {
	want := "6 cells held to 1%, 4 structural only: p50_us, shed"
	if got := cellSummary(table()); got != want {
		t.Errorf("summary %q, want %q", got, want)
	}
}

// TestEndToEnd runs the real flow against a snapshot generated from the
// registry itself (F4 re-derives the paper's printed Summary-DB values
// — cheap and fully deterministic), then corrupts it and expects exit 1.
func TestEndToEnd(t *testing.T) {
	fresh, err := runExperiment("F4")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(tab *bench.Table) {
		data, err := json.Marshal(tab)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "BENCH_F4.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(fresh)
	var out, errOut strings.Builder
	if code := realMain([]string{"-dir", dir}, &out, &errOut); code != 0 {
		t.Fatalf("clean diff exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "benchdiff: F4 ok") {
		t.Errorf("missing ok line: %q", out.String())
	}

	fresh.Rows[0][1] = "999999"
	write(fresh)
	out.Reset()
	errOut.Reset()
	if code := realMain([]string{"-dir", dir}, &out, &errOut); code != 1 {
		t.Fatalf("corrupted snapshot exited %d, want 1: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "1 of 1 snapshots diverged") {
		t.Errorf("missing summary: %q", errOut.String())
	}

	// A snapshot naming a nonexistent experiment fails too.
	if err := os.Rename(filepath.Join(dir, "BENCH_F4.json"), filepath.Join(dir, "BENCH_E999.json")); err != nil {
		t.Fatal(err)
	}
	if code := realMain([]string{"-dir", dir}, &out, &errOut); code != 1 {
		t.Error("unknown experiment id did not fail")
	}
}
