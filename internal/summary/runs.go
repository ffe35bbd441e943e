package summary

import (
	"fmt"

	"statdb/internal/exec"
	"statdb/internal/obs"
)

// RunSource re-reads one column of the view as a run column. The second
// return is false when the run form is unavailable (read error, store
// detached mid-flight); callers then fall back to the row Source. The
// view layer hands the Summary Database a RunSource only for columns the
// planner heuristic already judged run-eligible, so a non-nil RunSource
// is a decision, not a hint.
type RunSource func() (exec.RunColumn, bool)

// readRunSource runs one compressed column pass under a "scan" span,
// tagging it with the strategy, run count and runs/rows ratio that
// EXPLAIN surfaces. Device charges land on the span exactly as in
// readSource. The caller holds db.mu.
func (db *DB) readRunSource(runs RunSource) (exec.RunColumn, bool) {
	sp := db.tracer.Begin("scan")
	rc, ok := runs()
	if !ok {
		sp.SetAttr("strategy", "runs-unavailable")
		sp.End()
		return exec.RunColumn{}, false
	}
	sp.SetAttr("rows", fmt.Sprintf("%d", rc.Rows))
	sp.SetAttr("runs", fmt.Sprintf("%d", len(rc.Vals)))
	if rc.Rows > 0 {
		sp.SetAttr("ratio", fmt.Sprintf("%.3f", float64(len(rc.Vals))/float64(rc.Rows)))
	}
	sp.SetAttr("strategy", "runs")
	sp.End()
	db.met.passes.Inc()
	return rc, true
}

// foldRuns evaluates a over the run column through the run-native
// kernels, charging one cell cost per run — the compression dividend.
// The fold span carries engine=runs so EXPLAIN shows which strategy won,
// mirroring the serial/parallel split of foldRows.
func (db *DB) foldRuns(a *aggregate, rc exec.RunColumn) (float64, error) {
	cost := exec.DefaultCost()
	nruns := len(rc.Vals)
	ticks := cost.RunTicks(nruns)
	sp := db.tracer.Begin("fold", obs.A("fn", a.name), obs.A("engine", "runs"),
		obs.AI("runs", int64(nruns)))
	sp.Charge(ticks)
	defer sp.End()
	db.met.runStrategyHits.Inc()
	db.met.runsFolded.Add(int64(nruns))
	db.met.passTicks.Observe(ticks)
	var st State
	var err error
	if a.moments != nil {
		st.Moments, err = exec.FoldMomentsRuns(rc)
	} else {
		st.Freq, err = exec.FoldFreqRuns(rc)
	}
	if err != nil {
		return 0, err
	}
	return a.finalize(st)
}
