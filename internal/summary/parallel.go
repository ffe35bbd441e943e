package summary

import (
	"statdb/internal/exec"
	"statdb/internal/obs"
)

// ParallelThreshold is the column length below which Summary Database
// folds run inline even when a pool is attached: fan-out overhead loses
// on short columns. It schedules a fold and never changes its answer.
const ParallelThreshold = 2 * exec.DefaultChunk

// SetExec attaches an execution pool so whole-column recomputations
// (cache misses and stale refills) of long columns fan out across it.
// Every fold cuts the column on exec's one chunk grid and merges in grid
// order, with or without a pool, so every answer — moments included — is
// bit-identical at any worker count; a nil or single-worker pool runs the
// same chunks inline.
func (db *DB) SetExec(p *exec.Pool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.pool = p
}

// foldRows folds a row slice into the states the flags name on the
// chunk grid, in one read for a, the function that asked: long columns
// fan out through the pool, short ones (or any, without a pool) run the
// same chunks inline. The fold is profiled as one span charged with the
// engine cost model's ticks for the chosen route (never wall time)
// however many states it folds, so EXPLAIN output is deterministic and
// the serial-vs-parallel decision is the span's engine attribute.
func (db *DB) foldRows(a *aggregate, xs []float64, valid []bool, moments, freq bool) State {
	cost := exec.DefaultCost()
	p := db.pool
	var sp *obs.Span
	var ticks int64
	if p == nil || p.Workers() <= 1 || len(xs) < ParallelThreshold {
		p = nil
		ticks = cost.SerialTicks(len(xs))
		sp = db.tracer.Begin("fold", obs.A("fn", a.name), obs.A("engine", "serial"))
	} else {
		chunks := len(exec.Chunks(len(xs), exec.DefaultChunk))
		ticks = cost.ParallelTicks(len(xs), exec.DefaultChunk, p.Workers())
		sp = db.tracer.Begin("fold", obs.A("fn", a.name), obs.A("engine", "parallel"),
			obs.AI("chunks", int64(chunks)), obs.AI("workers", int64(p.Fanout(chunks))))
	}
	sp.Charge(ticks)
	defer sp.End()
	var st State
	st.Moments, st.Freq = exec.ColumnFold(p, xs, valid, exec.DefaultChunk, moments, freq)
	return st
}
