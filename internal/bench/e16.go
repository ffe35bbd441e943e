package bench

import (
	"fmt"

	"statdb/internal/colstore"
	"statdb/internal/exec"
	"statdb/internal/stats"
	"statdb/internal/storage"
	"statdb/internal/summary"
	"statdb/internal/workload"
)

// E16RunStrategy measures run-aware compressed execution: folding a
// low-cardinality census column straight from its RLE runs against
// decoding it to rows first. The census generator emits records in
// category order, so the category columns carry the long runs the
// paper's compression discussion predicts for sorted extracts — REGION
// spans thousands of rows per run, AGE_GROUP dozens. Ticks come from the
// deterministic engine cost model (SerialTicks charges per row,
// RunTicks per run), so the table is machine-stable; both pipelines
// also run for real through the transposed store (scan + fold) once,
// and the answers are checked to agree. The wall-clock price of each
// path is the benchmark ladder's (exec.fold_runs_ns_per_run against
// exec.fold_moments_ns_per_row, colstore.run_read_ns_per_run against
// colstore.rle_read_ns_per_row).
func E16RunStrategy() (*Table, error) {
	t := &Table{
		ID:     "E16",
		Title:  "Run-aware execution: fold RLE runs vs decode-then-fold (virtual ticks)",
		Claim:  "a whole-column fold over a low-cardinality column costs O(runs), not O(rows): >=10x on census category columns",
		Header: []string{"column", "rows", "runs", "row ticks", "run ticks", "tick speedup", "answers match"},
	}
	// 2*16*8*4*100 = 102400 records, matching E13's column size.
	census, err := workload.Census(workload.CensusSpec{Regions: 16, Races: 8, AgeGroups: 4, Educations: 100, Seed: 16})
	if err != nil {
		return nil, err
	}
	rows := census.Rows()

	dev := storage.NewMemDevice(storage.DefaultDiskCost())
	f, err := colstore.Load(storage.NewBufferPool(dev, 16), census,
		colstore.Options{Encode: colstore.SuggestEncodings(census)})
	if err != nil {
		return nil, err
	}
	cost := exec.DefaultCost()

	minTick, mismatched := 0.0, 0
	for _, name := range []string{"REGION", "AGE_GROUP"} {
		if enc, err := f.ColumnEncoding(name); err != nil || enc != colstore.RLE {
			return nil, fmt.Errorf("bench: E16 expects %s to be RLE-encoded, got %v, %v", name, enc, err)
		}

		// Row path: decode the column, then fold every row.
		xs, valid, err := f.NumericColumn(name)
		if err != nil {
			return nil, err
		}
		rowSum, err := stats.Summarize(xs, valid)
		if err != nil {
			return nil, err
		}
		rowFV, rowFC := stats.Frequencies(xs, valid)

		// Run path: stream the decoded runs, fold each once.
		vals, nulls, counts, err := f.NumericRunColumn(name)
		if err != nil {
			return nil, err
		}
		rc := exec.RunColumn{Vals: vals, Nulls: nulls, Counts: counts, Rows: rows}
		m, err := exec.FoldMomentsRuns(rc)
		if err != nil {
			return nil, err
		}
		freq, err := exec.FoldFreqRuns(rc)
		if err != nil {
			return nil, err
		}
		runSum, err := finalized(summary.State{Moments: m, Freq: freq})
		if err != nil {
			return nil, err
		}

		// The doctrine check: order statistics, extrema and counts bit
		// for bit; the regrouped moments to ulps (summariesAgree); the
		// frequency table exactly.
		match := "yes"
		if !summariesAgree(runSum, rowSum) {
			match = "NO"
		}
		if len(freq.Values) != len(rowFV) {
			match = "NO"
		} else {
			for i := range rowFV {
				if freq.Values[i] != rowFV[i] || freq.Counts[i] != int64(rowFC[i]) {
					match = "NO"
				}
			}
		}

		runs := len(vals)
		rowTicks := cost.SerialTicks(rows)
		runTicks := cost.RunTicks(runs)

		tickX := float64(rowTicks) / float64(runTicks)
		if minTick == 0 || tickX < minTick {
			minTick = tickX
		}
		if match != "yes" {
			mismatched++
		}
		t.AddRow(name, rows, runs, rowTicks, runTicks, ratio(float64(rowTicks), float64(runTicks)), match)
	}

	t.Finding = fmt.Sprintf(
		"folding runs instead of rows wins at least %.0fx in engine ticks on the 102400-row census category "+
			"columns, and every run answer matched the row answer — order statistics, extrema, counts and "+
			"frequencies bit for bit, the regrouped moments to ulps; the win scales with the compression ratio "+
			"(REGION's 3200-row runs beat AGE_GROUP's 100-row runs), which is why the planner gates the strategy "+
			"on the stored runs/rows ratio rather than the encoding alone",
		minTick)
	switch {
	case mismatched > 0:
		t.Finding += fmt.Sprintf(" [CLAIM FAILED: %d columns' run answers diverged from the row answers]", mismatched)
	case minTick < 10:
		t.Finding += fmt.Sprintf(" [CLAIM FAILED: tick %.1fx < 10x]", minTick)
	}
	return t, nil
}
