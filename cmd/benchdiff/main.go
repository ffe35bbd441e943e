// Command benchdiff guards the committed perf trajectory: for every
// BENCH_<ID>.json snapshot it re-runs experiment <ID> fresh (in
// process, through the same internal/bench registry cmd/experiments
// uses) and diffs the new table against the committed one.
//
// Structure — ID, title, header, row count, row labels — must match
// exactly: a changed shape means the committed snapshot is stale. Every
// experiment cell is a function of the seed, so numeric cells must agree
// within 1% and text cells exactly. The one exception is E19's load
// driver, whose shed count, throughput and latency percentiles are wall
// clock: those columns are checked structurally only (a number stays a
// number, a marker stays itself). A "CLAIM FAILED" marker in either the
// fresh or the committed finding fails the run regardless.
//
// Usage:
//
//	benchdiff [-dir DIR] [ID...]
//
// With no IDs every BENCH_*.json under -dir is checked. Exits nonzero
// on any mismatch, naming each offending cell.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"statdb/internal/bench"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(errw)
	dir := fs.String("dir", ".", "directory holding the committed BENCH_*.json snapshots")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ids := fs.Args()
	if len(ids) == 0 {
		files, err := filepath.Glob(filepath.Join(*dir, "BENCH_*.json"))
		if err != nil {
			fmt.Fprintln(errw, "benchdiff:", err)
			return 1
		}
		for _, f := range files {
			id := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), "BENCH_"), ".json")
			ids = append(ids, id)
		}
		sort.Strings(ids)
	}
	if len(ids) == 0 {
		fmt.Fprintf(errw, "benchdiff: no BENCH_*.json under %s\n", *dir)
		return 1
	}

	failed := 0
	for _, id := range ids {
		committed, err := readTable(filepath.Join(*dir, "BENCH_"+id+".json"))
		if err != nil {
			fmt.Fprintln(errw, "benchdiff:", err)
			failed++
			continue
		}
		fresh, err := runExperiment(id)
		if err != nil {
			fmt.Fprintln(errw, "benchdiff:", err)
			failed++
			continue
		}
		problems := diffTables(committed, fresh)
		if len(problems) == 0 {
			fmt.Fprintf(out, "benchdiff: %s ok (%s)\n", id, cellSummary(committed))
			continue
		}
		failed++
		for _, p := range problems {
			fmt.Fprintf(errw, "benchdiff: %s: %s\n", id, p)
		}
	}
	if failed > 0 {
		fmt.Fprintf(errw, "benchdiff: %d of %d snapshots diverged\n", failed, len(ids))
		return 1
	}
	return 0
}

func readTable(path string) (*bench.Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t bench.Table
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &t, nil
}

func runExperiment(id string) (*bench.Table, error) {
	for _, ex := range bench.All() {
		if strings.EqualFold(ex.ID, id) {
			return ex.Run()
		}
	}
	return nil, fmt.Errorf("no experiment %q in the registry (stale snapshot?)", id)
}

// tol is the relative tolerance for numeric cells.
const tol = 0.01

// noisyColumn reports whether a header names one of E19's wall-clock
// load-driver columns: throughput, latency percentiles, and shed counts
// (a scheduling outcome). Any other column is held to tol, so a wall-clock
// column added anywhere else fails the diff rather than passing it.
func noisyColumn(header string) bool {
	h := strings.ToLower(header)
	for _, frag := range []string{"shed", "throughput", "_us"} {
		if strings.Contains(h, frag) {
			return true
		}
	}
	return false
}

func numeric(cell string) (float64, bool) {
	s := strings.TrimSuffix(strings.TrimSpace(cell), "x")
	s = strings.TrimSuffix(s, "%")
	s = strings.TrimPrefix(s, "+")
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

// diffTables returns every way fresh diverges from committed.
func diffTables(committed, fresh *bench.Table) []string {
	var problems []string
	if strings.Contains(fresh.Finding, "CLAIM FAILED") {
		problems = append(problems, "fresh run reports: "+fresh.Finding)
	}
	if strings.Contains(committed.Finding, "CLAIM FAILED") {
		problems = append(problems, "committed snapshot reports: "+committed.Finding)
	}
	if fresh.ID != committed.ID || fresh.Title != committed.Title {
		problems = append(problems, fmt.Sprintf("identity changed: %s/%q vs committed %s/%q",
			fresh.ID, fresh.Title, committed.ID, committed.Title))
	}
	if strings.Join(fresh.Header, "|") != strings.Join(committed.Header, "|") {
		problems = append(problems, fmt.Sprintf("header changed: %v vs committed %v", fresh.Header, committed.Header))
		return problems // cell comparison is meaningless across headers
	}
	if len(fresh.Rows) != len(committed.Rows) {
		problems = append(problems, fmt.Sprintf("row count changed: %d vs committed %d", len(fresh.Rows), len(committed.Rows)))
		return problems
	}
	for r := range committed.Rows {
		if len(fresh.Rows[r]) != len(committed.Rows[r]) {
			problems = append(problems, fmt.Sprintf("row %d width changed", r))
			continue
		}
		for c := range committed.Rows[r] {
			problems = append(problems, diffCell(committed, fresh, r, c)...)
		}
	}
	return problems
}

// diffCell compares one cell. Every column must keep a number a number
// and a text marker ("yes", "stale merge", "n/a") itself; numbers outside
// a noisy column must also agree within tol, and a committed zero must
// stay zero.
func diffCell(committed, fresh *bench.Table, r, c int) []string {
	was, is := committed.Rows[r][c], fresh.Rows[r][c]
	want, haveWant := numeric(was)
	got, haveGot := numeric(is)
	loc := fmt.Sprintf("row %d %q", r, committed.Header[c])
	switch {
	case haveWant != haveGot:
		return []string{fmt.Sprintf("%s: %q vs committed %q (numeric/text shape changed)", loc, is, was)}
	case !haveWant:
		if is != was {
			return []string{fmt.Sprintf("%s: %q vs committed %q", loc, is, was)}
		}
	case !noisyColumn(committed.Header[c]) && math.Abs(got-want) > tol*math.Abs(want):
		return []string{fmt.Sprintf("%s: %g vs committed %g (beyond %.0f%% tolerance)", loc, got, want, tol*100)}
	}
	return nil
}

// cellSummary says how many of t's cells are held to tol and names the
// columns checked structurally only.
func cellSummary(t *bench.Table) string {
	var noisy []string
	for _, h := range t.Header {
		if noisyColumn(h) {
			noisy = append(noisy, h)
		}
	}
	strict := 0
	for _, row := range t.Rows {
		strict += len(row) - len(noisy)
	}
	s := fmt.Sprintf("%d cells held to %.0f%%", strict, tol*100)
	if len(noisy) > 0 {
		s += fmt.Sprintf(", %d structural only: %s", len(t.Rows)*len(noisy), strings.Join(noisy, ", "))
	}
	return s
}
