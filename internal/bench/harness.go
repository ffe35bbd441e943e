// Package bench implements the experiment harness: one function per
// paper figure or quantitative claim (see DESIGN.md's per-experiment
// index), each returning a rendered table. cmd/experiments prints all of
// them, cmd/benchdiff reruns them against the committed BENCH_*.json
// snapshots, and EXPERIMENTS.md records the measured shapes against the
// paper's predictions.
//
// The harness has one clock: every cell is a function of the seed —
// virtual device ticks, column passes, cells touched, counts — so the
// tables are identical across machines and runs. The one exception is
// E19, whose subject is the load driver's own wall-clock queueing
// (throughput, latency percentiles, the open loop's shed count). Wall
// time of the database's layers is the benchmark/ ladder's to measure.
package bench

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// Table is one experiment's result.
type Table struct {
	ID     string // e.g. "E1"
	Title  string
	Claim  string // the paper's prediction being checked
	Header []string
	Rows   [][]string
	// Finding summarizes what the numbers show, written by the experiment.
	Finding string
}

// AddRow appends a row of cells, formatting non-strings with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(w, "paper claim: %s\n", t.Claim)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if t.Finding != "" {
		fmt.Fprintf(w, "finding: %s\n", t.Finding)
	}
	fmt.Fprintln(w)
	return nil
}

// Experiment is one runnable experiment.
type Experiment struct {
	ID  string
	Run func() (*Table, error)
}

// All returns every experiment in report order.
func All() []Experiment {
	return []Experiment{
		{"F1", Figure1Dataset},
		{"F2", Figure2Decode},
		{"F3", Figure3Architecture},
		{"F4", Figure4SummaryDB},
		{"F5", Figure5FiniteDifferencing},
		{"E1", E1SummaryCache},
		{"E2", E2Incremental},
		{"E3", E3MedianWindow},
		{"E4", E4Transposed},
		{"E5", E5Compression},
		{"E6", E6Materialization},
		{"E7", E7Policies},
		{"E8", E8Sampling},
		{"E9", E9DerivedRules},
		{"E10", E10Abstract},
		{"E11", E11DatabaseMachine},
		{"E12", E12ViewBacking},
		{"E13", E13ParallelEngine},
		{"E14", E14RecoveryCost},
		{"E15", E15ObsOverhead},
		{"E16", E16RunStrategy},
		{"E17", E17ShardedScatterGather},
		{"E18", E18ProfilerOverhead},
		{"E19", E19LoadSaturation},
		{"A1", AblationClustering},
		{"A2", AblationWindowWidth},
		{"A3", AblationAutoReorg},
		{"A4", AblationUndo},
		{"A5", AblationBufferPool},
	}
}

// ratio formats a/b as "NxM" style factor, guarding zero.
func ratio(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", a/b)
}
