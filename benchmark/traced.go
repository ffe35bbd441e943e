package main

import (
	"fmt"
	"math/rand"
	"time"

	"statdb/internal/obs"
)

// tracedResult is one traced run of one workload.
type tracedResult struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Statements int                `json:"statements"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Metrics    map[string]float64 `json:"metrics"`
}

// shardedFns are the functions query.exec routes around the Summary
// Database to the shards at this commit (the help text's twelve minus
// sum, median, q1, q3, mode); shard.scatters_per_repeat divides by the
// repeats of these.
var shardedFns = map[string]bool{"count": true, "mean": true, "variance": true, "sd": true, "min": true, "max": true, "unique": true}

// runTraced is the traced run: the passes, then the ladder on the traced
// pass's fixture, then the span file. End-to-end metrics are never taken
// from here.
func runTraced(w *workload, seed int64, opt options) (*tracedResult, error) {
	tr := newTracer()
	res, fx, traced, err := tracePasses(w, seed, opt, tr)
	if err != nil {
		return nil, err
	}
	rungs, err := runLadder(fx, w, tr, opt.budget/150)
	if err != nil {
		return nil, fmt.Errorf("%s: ladder: %w", w.name, err)
	}
	for k, v := range rungs {
		res.Metrics[k] = v
	}
	if err := tr.write(opt.outDir, w.name, traced); err != nil {
		return nil, err
	}
	return res, nil
}

// tracePasses runs the workload once untraced and once with a span per
// statement — both a fixed number of rounds, so registry counts repeat
// exactly — with registry snapshots around the traced pass, and returns
// the per-layer metrics the passes define.
func tracePasses(w *workload, seed int64, opt options, tr *tracer) (*tracedResult, *fixture, *pass, error) {
	lim := limit{rounds: w.traceRounds}
	newPlan := func(fx *fixture) func(int) [][]*stmt {
		return w.plan(fx, rand.New(rand.NewSource(planSeed(seed))))
	}
	var t tally
	fresh := func() (*fixture, error) {
		fx, err := setUp(w, seed, opt.sc)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		t.add(fx.tally)
		return fx, nil
	}

	fx, err := fresh()
	if err != nil {
		return nil, nil, nil, err
	}
	plan := newPlan(fx)
	base := runPass(fx, w, plan, 0, lim, nil)
	t.add(base.tally())
	from := base.rounds
	if w.rounds > 0 {
		// The untraced pass used up cold pairs; trace the same rounds on
		// a fixture of the same seed.
		if fx, err = fresh(); err != nil {
			return nil, nil, nil, err
		}
		plan, from = newPlan(fx), 0
	}
	before := fx.d.Metrics()
	traced := runPass(fx, w, plan, from, lim, tr)
	after := fx.d.Metrics()
	t.add(traced.tally())
	if traced.statements == 0 {
		return nil, nil, nil, fmt.Errorf("%s: the traced pass ran no statement", w.name)
	}

	out := passMetrics(fx, traced, before, after)
	out["trace.overhead_share"] = median(base.roundSps)/median(traced.roundSps) - 1
	if len(fx.sessions) > 1 {
		solo, err := fresh()
		if err != nil {
			return nil, nil, nil, err
		}
		alone, st := soloReplay(solo, newPlan(solo), w.traceRounds)
		t.add(st)
		var together time.Duration
		for _, rec := range traced.recs {
			together += rec.busy
		}
		out["core.gate_wait_share"] = 1 - alone.Seconds()/together.Seconds()
	}
	out["stmt.failed_share"] = float64(t.failed()) / float64(t.attempted())
	return &tracedResult{Workload: w.name, Seed: seed, Statements: traced.statements,
		Attempted: t.attempted(), Failed: t.failed(), Metrics: out}, fx, traced, nil
}

// soloReplay runs the traced rounds' streams on a fresh fixture, one
// session after the other, and returns the summed statement time: what
// the same statements cost with nobody else at the gate.
func soloReplay(fx *fixture, plan func(int) [][]*stmt, rounds int) (time.Duration, tally) {
	var t tally
	var sum time.Duration
	for r := 0; r < rounds; r++ {
		for s, list := range plan(r) {
			rec := newSessionRec(list, 1, false)
			runList(fx.sessions[s], list, rec, nil)
			rec.checkRound(list)
			sum += rec.busy
			t.add(rec.tally)
		}
	}
	return sum, t
}

// passMetrics derives the per-layer numbers that come from the traced
// pass itself: per-class latencies and registry count deltas.
func passMetrics(fx *fixture, p *pass, before, after obs.Snapshot) map[string]float64 {
	out := map[string]float64{}
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	for c, name := range map[class]string{classFirst: "stmt.first_p50_us", classRepeat: "stmt.repeat_p50_us",
		classUpdate: "stmt.update_p50_us", classUndo: "stmt.undo_p50_us"} {
		out[name] = percentileUs(p.latencies(ofClass(c)), 50)
	}

	// First-time cost by state family on float columns (the expensive
	// shape, and the one the ladder's kernels run on), over every such
	// first statement of the traced run: the traced pass's and the
	// warm-up's.
	byFam := map[family][]int64{}
	for i, st := range fx.warm {
		if st.onFloat {
			byFam[st.fam] = append(byFam[st.fam], fx.warmLat[i])
		}
	}
	var firsts, shardedRepeats float64
	var ticks, busy int64
	for _, rec := range p.recs {
		ticks += rec.ticks
		for i, st := range rec.st {
			busy += rec.lat[i]
			switch {
			case st.class == classFirst:
				firsts++
				if st.onFloat {
					byFam[st.fam] = append(byFam[st.fam], rec.lat[i])
				}
			case st.class == classRepeat && shardedFns[st.fn]:
				shardedRepeats++
			}
		}
	}
	for fam, name := range map[family]string{famMoment: "summary.first_moment_us", famOrder: "summary.first_order_us", famFreq: "summary.first_freq_us"} {
		out[name] = percentileUs(sorted(byFam[fam]), 50)
	}

	out["obs.ticks_per_stmt"] = float64(ticks) / float64(p.statements)
	out["obs.ns_per_tick"] = ratio(float64(busy), float64(ticks))
	out["core.gate_admitted"] = delta(obs.MGateAdmitted)
	out["core.gate_shed"] = delta(obs.MGateShed)
	out["view.column_scans"] = delta(obs.MViewColumnScans)
	hits, misses, stale := delta(obs.MSummaryHits), delta(obs.MSummaryMisses), delta(obs.MSummaryStaleRefill)
	out["summary.hits"], out["summary.misses"], out["summary.stale_refill"] = hits, misses, stale
	out["summary.incremental"] = delta(obs.MSummaryIncremental)
	out["summary.rebuilds"] = delta(obs.MSummaryRebuilds)
	out["summary.hit_ratio"] = ratio(hits, hits+misses+stale)
	out["summary.passes_per_first"] = ratio(delta(obs.MSummaryPasses), firsts)
	out["medwin.slides"] = delta(obs.MMedwinSlides)
	out["medwin.rebuilds"] = delta(obs.MMedwinRebuilds)
	out["exec.chunks"] = delta(obs.MExecChunks)
	parallel := delta(obs.MExecRunsParallel)
	out["exec.parallel_share"] = ratio(parallel, parallel+delta(obs.MExecRunsSerial))
	out["exec.run_strategy_hits"] = delta(obs.MExecRunStrategyHits)
	out["exec.rows_decoded"] = delta(obs.MExecRowsDecoded)
	poolHits := delta(obs.MStoragePoolHits)
	out["storage.pool_hit_ratio"] = ratio(poolHits, poolHits+delta(obs.MStoragePoolMisses))
	out["storage.pool_evictions"] = delta(obs.MStoragePoolEvictions)
	out["storage.page_reads"] = delta(obs.MStoragePageReads)
	out["storage.page_writes"] = delta(obs.MStoragePageWrites)
	out["storage.pages_per_first"] = ratio(delta(obs.MStoragePageReads), firsts)
	out["shard.scatters"] = delta(obs.MShardScatters)
	out["shard.scatters_per_repeat"] = ratio(delta(obs.MShardScatters), shardedRepeats)
	return out
}
