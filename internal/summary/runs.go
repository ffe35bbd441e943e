package summary

import (
	"fmt"

	"statdb/internal/exec"
	"statdb/internal/obs"
)

// RunSource reads one column of the view as a run column. The view
// layer hands the Summary Database a RunSource only for columns the
// planner heuristic already judged run-eligible, so a non-nil RunSource
// is a decision, not a hint: a read that fails fails the call, as a row
// Source's does, and never falls back to rows.
type RunSource func() (exec.RunColumn, error)

// readRunSource runs one compressed column pass under a "scan" span,
// tagging it with the strategy, run count and runs/rows ratio that
// EXPLAIN surfaces. Device charges land on the span exactly as in
// readSource. The caller holds db.mu.
func (db *DB) readRunSource(runs RunSource) (exec.RunColumn, error) {
	sp := db.tracer.Begin("scan")
	defer sp.End()
	rc, err := runs()
	if err != nil {
		return exec.RunColumn{}, err
	}
	sp.SetAttr("rows", fmt.Sprintf("%d", rc.Rows))
	sp.SetAttr("runs", fmt.Sprintf("%d", len(rc.Vals)))
	if rc.Rows > 0 {
		sp.SetAttr("ratio", fmt.Sprintf("%.3f", float64(len(rc.Vals))/float64(rc.Rows)))
	}
	sp.SetAttr("strategy", "runs")
	db.met.passes.Inc()
	return rc, nil
}

// foldRuns folds the run column into the states the flags name through
// the run-native kernels, charging one cell cost per run — the
// compression dividend. The fold span carries engine=runs so EXPLAIN
// shows which strategy won, mirroring the serial/parallel split of
// foldRows.
func (db *DB) foldRuns(a *aggregate, rc exec.RunColumn, moments, freq bool) (State, error) {
	cost := exec.DefaultCost()
	nruns := len(rc.Vals)
	ticks := cost.RunTicks(nruns)
	sp := db.tracer.Begin("fold", obs.A("fn", a.name), obs.A("engine", "runs"),
		obs.AI("runs", int64(nruns)))
	sp.Charge(ticks)
	defer sp.End()
	db.met.runStrategyHits.Inc()
	var st State
	var err error
	if moments {
		if st.Moments, err = exec.FoldMomentsRuns(rc); err != nil {
			return State{}, err
		}
	}
	if freq {
		st.Freq, err = exec.FoldFreqRuns(rc)
	}
	return st, err
}
