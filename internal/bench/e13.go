package bench

import (
	"fmt"
	"math"

	"statdb/internal/exec"
	"statdb/internal/stats"
	"statdb/internal/summary"
	"statdb/internal/workload"
)

// E13ParallelEngine measures the parallel chunked-execution engine on
// whole-column Summarize — the Section 2.6 access pattern ("few columns,
// all rows") that the engine partitions into chunks, folds in parallel
// and merges in chunk order. Ticks come from the deterministic engine
// cost model (exec.Cost), mirroring the virtual-device accounting of
// E4/E11, so the table is stable across machines; every grid point is
// also executed for real — one exec.ColumnFold on a w-worker pool,
// finalized through the Summary Database's aggregate table — and checked
// against the serial Summarize.
func E13ParallelEngine() (*Table, error) {
	t := &Table{
		ID:     "E13",
		Title:  "Parallel whole-column Summarize: serial vs engine (virtual engine ticks)",
		Claim:  "partition-then-merge pays off once the per-worker fold dwarfs dispatch-and-merge overhead; small columns stay serial",
		Header: []string{"rows", "workers", "serial ticks", "parallel ticks", "speedup", "answers match"},
	}
	cost := exec.DefaultCost()
	sizes := []int{512, 4096, 8192, 25600, 102400}
	widths := []int{2, 4, 8}
	for _, n := range sizes {
		xs, valid, err := salaryColumn(n)
		if err != nil {
			return nil, err
		}
		want, err := stats.Summarize(xs, valid)
		if err != nil {
			return nil, err
		}
		serial := cost.SerialTicks(n)
		for _, w := range widths {
			par := cost.ParallelTicks(n, exec.DefaultChunk, w)
			m, freq := exec.ColumnFold(exec.New(w), xs, valid, exec.DefaultChunk, true, true)
			got, err := finalized(summary.State{Moments: m, Freq: freq})
			if err != nil {
				return nil, err
			}
			match := "yes"
			if !summariesAgree(got, want) {
				match = "NO"
			}
			t.AddRow(n, w, serial, par, ratio(float64(serial), float64(par)), match)
		}
	}
	crossover := parallelCrossover(cost, 4)
	t.Finding = fmt.Sprintf(
		"4 workers reach %s on the 102400-row column while the 512-row column stays cheaper serial; "+
			"with the default %d-row chunks the 4-worker engine first beats serial at %d rows — below that "+
			"the spawn-and-merge overhead exceeds the whole fold, which is why the Summary Database keeps "+
			"short columns on the serial path; every parallel answer matched the serial operator",
		ratio(float64(cost.SerialTicks(102400)), float64(cost.ParallelTicks(102400, exec.DefaultChunk, 4))),
		exec.DefaultChunk, crossover)
	return t, nil
}

// salaryColumn extracts the SALARY attribute of an n-row census microdata
// file as a numeric column.
func salaryColumn(n int) ([]float64, []bool, error) {
	return workload.Microdata(n, 12).NumericByName("SALARY")
}

// finalized turns a folded state into the Summary that summariesAgree
// compares with stats.Summarize, every statistic through the Summary
// Database's finalizer (summary.Finalize). The SD of fewer than two
// observations is NaN, as Summarize reports it.
func finalized(st summary.State) (stats.Summary, error) {
	s := stats.Summary{N: int(st.Moments.N), Missing: int(st.Moments.Missing), SD: math.NaN()}
	if sd, err := summary.Finalize("sd", st); err == nil {
		s.SD = sd
	}
	var unique float64
	for _, f := range []struct {
		fn  string
		dst *float64
	}{
		{"mean", &s.Mean}, {"min", &s.Min}, {"max", &s.Max}, {"median", &s.Median},
		{"q1", &s.Q1}, {"q3", &s.Q3}, {"mode", &s.Mode}, {"unique", &unique},
	} {
		v, err := summary.Finalize(f.fn, st)
		if err != nil {
			return stats.Summary{}, err
		}
		*f.dst = v
	}
	s.Unique = int(unique)
	return s, nil
}

// summariesAgree checks the engine's Summary against the serial one:
// bit-identical for the order-insensitive fields, 1e-12 relative for the
// sum-based moments (the pairwise merge regroups float additions).
func summariesAgree(got, want stats.Summary) bool {
	if got.N != want.N || got.Missing != want.Missing || got.Unique != want.Unique {
		return false
	}
	if got.Min != want.Min || got.Max != want.Max || got.Mode != want.Mode {
		return false
	}
	if got.Median != want.Median || got.Q1 != want.Q1 || got.Q3 != want.Q3 {
		return false
	}
	return relClose(got.Mean, want.Mean) && relClose(got.SD, want.SD)
}

func relClose(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-12*scale
}

// parallelCrossover returns the smallest row count (stepping by whole
// chunks) at which the engine's critical path beats the serial fold for
// the given worker count.
func parallelCrossover(cost exec.Cost, workers int) int {
	for n := exec.DefaultChunk; ; n += exec.DefaultChunk {
		if cost.ParallelTicks(n, exec.DefaultChunk, workers) < cost.SerialTicks(n) {
			return n
		}
	}
}
