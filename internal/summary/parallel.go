package summary

import (
	"statdb/internal/exec"
	"statdb/internal/obs"
)

// ParallelThreshold is the column length below which Summary Database
// recomputations stay on the exact serial operators even when a pool is
// attached: fan-out overhead loses on short columns, and keeping small
// data sets serial preserves the pre-engine results bit for bit.
const ParallelThreshold = 2 * exec.DefaultChunk

// SetExec attaches an execution pool so whole-column recomputations
// (cache misses, stale refills, maintainer rebuild passes feeding
// foldRows) run chunk-parallel. A nil or single-worker pool — or
// chunk <= 0 with short columns — keeps today's serial behavior.
// Results are deterministic for any worker count; order-insensitive
// functions (count, min, max, median, quartiles, mode, unique) are
// bit-identical to serial, while sum, mean, variance and sd may differ
// in the last units of precision.
func (db *DB) SetExec(p *exec.Pool, chunk int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.pool = p
	if chunk <= 0 {
		chunk = exec.DefaultChunk
	}
	db.chunk = chunk
}

// foldRows evaluates a over a row slice: long columns fold into a's
// state family through the pool and finalize, everything else takes the
// serial reference operator. A non-nil keep (freq rows only) receives
// the sorted frequency table, which the answer is then finalized from on
// either route. The fold is profiled as a span charged with the engine
// cost model's ticks for the chosen route (never wall time), so EXPLAIN
// output is deterministic and the serial-vs-parallel decision is visible
// in both the span attrs and the summary.recompute.{serial,parallel}
// counters.
func (db *DB) foldRows(a *aggregate, xs []float64, valid []bool, keep *exec.FreqTable) (float64, error) {
	cost := exec.DefaultCost()
	p := db.pool
	if p == nil || p.Workers() <= 1 || len(xs) < ParallelThreshold {
		ticks := cost.SerialTicks(len(xs))
		sp := db.tracer.Begin("fold", obs.A("fn", a.name), obs.A("engine", "serial"))
		sp.Charge(ticks)
		defer sp.End()
		db.met.recomputeSerial.Inc()
		db.met.passTicks.Observe(ticks)
		if keep != nil {
			*keep = exec.FoldFreq(xs, valid).Table()
			return a.freq(*keep)
		}
		return a.serial(xs, valid)
	}
	chunks := len(exec.Chunks(len(xs), db.chunk))
	workers := p.Workers()
	if workers > chunks {
		workers = chunks
	}
	ticks := cost.ParallelTicks(len(xs), db.chunk, p.Workers())
	sp := db.tracer.Begin("fold", obs.A("fn", a.name), obs.A("engine", "parallel"),
		obs.AI("chunks", int64(chunks)), obs.AI("workers", int64(workers)))
	sp.Charge(ticks)
	defer sp.End()
	db.met.recomputeParallel.Inc()
	db.met.passTicks.Observe(ticks)
	if a.moments != nil {
		return a.finalize(State{Moments: exec.ColumnMoments(p, xs, valid, db.chunk)})
	}
	f := exec.ColumnFreq(p, xs, valid, db.chunk)
	if keep == nil {
		return a.finalize(State{Freq: f})
	}
	*keep = f.Table()
	return a.freq(*keep)
}
