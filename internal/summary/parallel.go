package summary

import (
	"statdb/internal/exec"
	"statdb/internal/obs"
)

// ParallelThreshold is the column length below which Summary Database
// folds run inline even when a pool is attached: fan-out overhead loses
// on short columns.
const ParallelThreshold = 2 * exec.DefaultChunk

// SetExec attaches an execution pool so whole-column recomputations
// (cache misses and stale refills) run chunk-parallel. A nil or
// single-worker pool — or chunk <= 0 with short columns — keeps today's
// serial behavior.
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

// foldRows folds a row slice into the state families f names — long
// columns chunk-parallel through the pool, short ones (or any, without a
// pool) inline, with M2 the serial operators' two-pass sum — in one read
// for a, the function that asked. The fold is profiled as one span
// charged with the engine cost model's ticks for the chosen route (never
// wall time) however many families it folds, so EXPLAIN output is
// deterministic and the serial-vs-parallel decision is visible in both
// the span attrs and the summary.recompute.{serial,parallel} counters.
func (db *DB) foldRows(a *aggregate, xs []float64, valid []bool, f families) State {
	cost := exec.DefaultCost()
	p := db.pool
	var st State
	if p == nil || p.Workers() <= 1 || len(xs) < ParallelThreshold {
		ticks := cost.SerialTicks(len(xs))
		sp := db.tracer.Begin("fold", obs.A("fn", a.name), obs.A("engine", "serial"))
		sp.Charge(ticks)
		defer sp.End()
		db.met.recomputeSerial.Inc()
		db.met.passTicks.Observe(ticks)
		if f.moments {
			st.Moments = exec.FoldMoments(xs, valid)
			st.Moments.M2 = sumSquares(xs, valid, st.Moments)
		}
		if f.freq {
			st.Freq = exec.FoldFreq(xs, valid)
		}
		return st
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
	st.Moments, st.Freq = exec.ColumnFold(p, xs, valid, db.chunk, f.moments, f.freq)
	return st
}

// sumSquares is stats.Variance's two-pass sum over the column m was
// folded from, Σ(x − Sum/N)² in row order: an inline fold's M2, so the
// variance and sd of a short column, first answer and kept state alike,
// equal the serial operators bit for bit.
func sumSquares(xs []float64, valid []bool, m exec.Moments) float64 {
	if m.N == 0 {
		return 0
	}
	mean, ss := m.Sum/float64(m.N), 0.0
	for i, x := range xs {
		if valid == nil || valid[i] {
			d := x - mean
			ss += d * d
		}
	}
	return ss
}
