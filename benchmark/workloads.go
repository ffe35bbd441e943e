package main

import (
	"fmt"
	"math"
	"math/rand"
)

// workload is one fixed statement mix. A plan hands out rounds: round r
// is one list of statements per session, with the same composition in
// every round and every seed (the seed decides data values and
// statement order), so per-round numbers are comparable and the run's
// value is their median. Building a round is off the clock and is where
// the oracle does its work.
type workload struct {
	name, why   string
	sessions    int
	hotTriples  int // (float, code, run) column triples whose pairs set-up warms
	coldTriples int // triples left cold for first-time statements
	backing     backing
	// tailPct is the percentile stmt_tail_us reports over a run's pooled
	// statements: the highest of p95 / p99 / p99.9 that leaves at least
	// ten samples beyond it in one run at the parent commit (README gives
	// the counts). scan_cold stays at p95: its 1080 statements leave
	// exactly ten beyond p99, and only when every round fits the budget.
	tailPct float64
	// rounds bounds the plan when each round consumes cold pairs the
	// fixture cannot give back; 0 means rounds repeat until time is up.
	rounds int
	// traceRounds is the fixed number of rounds a traced pass runs.
	traceRounds int
	views       func(sc scale, rawRows int, s *survey) []viewSpec
	plan        func(fx *fixture, rng *rand.Rand) func(r int) [][]*stmt
}

var workloads = []*workload{
	{
		name:     "repeat_hot",
		why:      "one session repeating 72 warmed (fn, attr) pairs, Zipf, memory-backed: query, gate, obs bookkeeping, summary hit and index do all the work",
		sessions: 1, hotTriples: 2, backing: backMemory, tailPct: 99.9, traceRounds: 2,
		views: oneView,
		plan: func(fx *fixture, rng *rand.Rand) func(int) [][]*stmt {
			return repeatRounds(fx, rng, fx.sc.count(20_000, 72))
		},
	},
	{
		name:     "scan_cold",
		why:      "first pass over a fresh extract: every pair once plus describe/histogram/correlate on transposed files behind a 64-frame pool, working set far larger than the pool",
		sessions: 1, coldTriples: 8, backing: backTransposedSmall, tailPct: 95, rounds: 8, traceRounds: 4,
		views: twoViews, plan: scanColdPlan,
	},
	{
		name:     "update_mix",
		why:      "predicate updates touching ~1% of rows beside repeats over incremental, window and invalidated aggregates, undo every 5th cycle, transposed files that fit the pool",
		sessions: 1, hotTriples: 2, backing: backTransposedFit, tailPct: 95, traceRounds: 2,
		views: oneView, plan: updateMixPlan,
	},
	{
		name:     "sessions",
		why:      "two concurrent sessions, 99.7% repeats over shared hot pairs and 0.3% firsts over private cold columns: admission gate, shared tracer and summary lock under contention",
		sessions: 2, hotTriples: 2, coldTriples: 8, backing: backMemory, tailPct: 99.9, rounds: 4, traceRounds: 1,
		views: oneView, plan: sessionsPlan,
	},
	{
		name:     "sharded_repeat",
		why:      "repeats on a 4-shard view: count/mean/variance/sd/min/max/unique bypass the summary cache and re-scatter every time",
		sessions: 1, hotTriples: 2, backing: backSharded, tailPct: 99, traceRounds: 2,
		views: oneView,
		plan: func(fx *fixture, rng *rand.Rand) func(int) [][]*stmt {
			return repeatRounds(fx, rng, fx.sc.count(120, 72))
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func measureNames(s *survey, from, to int) []string {
	var out []string
	for _, m := range s.measures[from:to] {
		out = append(out, m.name)
	}
	return out
}

// oneView keeps the last sc.rows IDs and every measure.
func oneView(sc scale, rawRows int, s *survey) []viewSpec {
	return []viewSpec{{name: "V", lo: rawRows - sc.rows, hi: rawRows, measures: measureNames(s, 0, len(s.measures))}}
}

// twoViews splits the triples between two views with different
// predicates: VA keeps the last sc.rows IDs and the even triples, VB the
// first sc.rows IDs and the odd ones.
func twoViews(sc scale, rawRows int, s *survey) []viewSpec {
	va := viewSpec{name: "VA", lo: rawRows - sc.rows, hi: rawRows}
	vb := viewSpec{name: "VB", lo: 0, hi: sc.rows}
	for t := 0; 3*t < len(s.measures); t++ {
		names := measureNames(s, 3*t, 3*t+3)
		if t%2 == 0 {
			va.measures = append(va.measures, names...)
		} else {
			vb.measures = append(vb.measures, names...)
		}
	}
	return []viewSpec{va, vb}
}

// hotPairs lists the (fn, attr) pairs over the hot triples of view V —
// the pairs set-up warms — in rank order: rank i asks fns[i%12], and
// attributes rotate so the hottest twelve ranks cover all twelve
// functions.
func hotPairs(fx *fixture) []pair {
	attrs := measureNames(fx.surv, 0, 3*fx.hotTriples)
	out := make([]pair, 0, len(attrs)*len(fns))
	for i := 0; i < len(attrs)*len(fns); i++ {
		f, a := i%len(fns), i/len(fns)
		out = append(out, pair{view: "V", fn: fns[f], attr: attrs[(a+f)%len(attrs)]})
	}
	return out
}

// zipfCounts apportions total draws over n ranks in proportion to
// 1/(rank+1)^1.1, every rank at least once: the repeat-biased access of
// the paper's Section 3.1 as a fixed multiset instead of a random draw,
// so every round does the same work.
func zipfCounts(n, total int) []int {
	weights := make([]float64, n)
	sum := 0.0
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), 1.1)
		sum += weights[i]
	}
	counts := make([]int, n)
	given := 0
	for i := range counts {
		counts[i] = 1 + int(float64(total-n)*weights[i]/sum)
		given += counts[i]
	}
	counts[0] += total - given // rounding remainder goes to the hottest rank
	return counts
}

// hotStmts builds the repeat statement of every hot pair, in rank order.
func hotStmts(fx *fixture) []*stmt {
	pairs := hotPairs(fx)
	out := make([]*stmt, len(pairs))
	for i, p := range pairs {
		out[i] = fx.orc.computeStmt(p, classRepeat)
	}
	return out
}

// zipfRepeats returns total statements over the ranked stmts as one
// Zipf multiset (unshuffled).
func zipfRepeats(ranked []*stmt, total int) []*stmt {
	out := make([]*stmt, 0, total)
	for i, c := range zipfCounts(len(ranked), total) {
		for ; c > 0; c-- {
			out = append(out, ranked[i])
		}
	}
	return out
}

func shuffle(rng *rand.Rand, s []*stmt) {
	rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
}

// repeatRounds is the plan of the two pure-repeat workloads: the same
// multiset every round, reshuffled.
func repeatRounds(fx *fixture, rng *rand.Rand, perRound int) func(int) [][]*stmt {
	round := zipfRepeats(hotStmts(fx), perRound)
	return func(int) [][]*stmt {
		shuffle(rng, round)
		return [][]*stmt{round}
	}
}

// scanColdPlan: round t asks every function once on each column of cold
// triple t (36 firsts, shuffled), then describes and bins each column
// and correlates the three pairs (9 more, shuffled).
func scanColdPlan(fx *fixture, rng *rand.Rand) func(int) [][]*stmt {
	return func(t int) [][]*stmt {
		view := fx.views[t%2].name
		attrs := measureNames(fx.surv, 3*t, 3*t+3)
		firsts := make([]*stmt, 0, 36)
		for _, p := range allPairs(view, attrs) {
			firsts = append(firsts, fx.orc.computeStmt(p, classFirst))
		}
		shuffle(rng, firsts)
		var others []*stmt
		for i, a := range attrs {
			others = append(others, fx.orc.describeStmt(view, a), fx.orc.histogramStmt(view, a),
				fx.orc.correlateStmt(view, a, attrs[(i+1)%3]))
		}
		shuffle(rng, others)
		return [][]*stmt{append(firsts, others...)}
	}
}

const cyclesPerRound = 5

// updateMixPlan: a round is five cycles of one update of F0 on the
// ~1 % of rows where C0 = k, then eight repeats on F0 — four
// incrementally maintained, two window-maintained, the two invalidated
// ones — in seeded order; the fifth cycle ends with an undo.
func updateMixPlan(fx *fixture, rng *rand.Rand) func(int) [][]*stmt {
	ks := rng.Perm(100)
	incremental := []string{"mean", "sd", "min", "max", "count", "sum", "variance"}
	window := []string{"median", "q1", "q3"}
	return func(r int) [][]*stmt {
		var out []*stmt
		for c := 0; c < cyclesPerRound; c++ {
			cycle := r*cyclesPerRound + c
			val := fmt.Sprintf("%.1f", 20+60*rng.Float64())
			upd, err := fx.orc.updateStmt("V", "F0", val, "C0", ks[cycle%len(ks)])
			if err != nil {
				return nil
			}
			out = append(out, upd)
			var asks []string
			for i := 0; i < 4; i++ {
				asks = append(asks, incremental[(cycle+i)%len(incremental)])
			}
			asks = append(asks, window[cycle%3], window[(cycle+1)%3], "mode", "unique")
			reps := make([]*stmt, 0, len(asks))
			for _, fn := range asks {
				reps = append(reps, fx.orc.computeStmt(pair{view: "V", fn: fn, attr: "F0"}, classRepeat))
			}
			shuffle(rng, reps)
			out = append(out, reps...)
		}
		out = append(out, fx.orc.undoStmt("V"))
		return [][]*stmt{out}
	}
}

// fnGroups splits the twelve functions into four groups of three, one
// order statistic or frequency function leading each, so that a column
// asked one group per round has been asked everything after four rounds.
var fnGroups = [4][3]string{
	{"median", "count", "sum"},
	{"q1", "mean", "variance"},
	{"q3", "mode", "sd"},
	{"unique", "min", "max"},
}

// sessionsPlan: each session owns four cold triples (twelve private
// columns). In round r it asks three new functions on each of its
// columns — the j-th column of a shape gets group (j+r)%4, so every
// round asks every function exactly once per shape and four rounds ask
// every pair once — among repeats over the shared hot pairs: 36 firsts
// in 12 000 statements, 0.3 %, at full scale.
func sessionsPlan(fx *fixture, rng *rand.Rand) func(int) [][]*stmt {
	hot := hotStmts(fx)
	perRound := fx.sc.count(12_000, 6*len(fns))
	return func(r int) [][]*stmt {
		lists := make([][]*stmt, len(fx.sessions))
		for s := range lists {
			cold := measureNames(fx.surv, 6+12*s, 6+12*(s+1))
			list := zipfRepeats(hot, perRound-3*len(cold))
			for i, a := range cold {
				for _, fn := range fnGroups[(i/3+r)%4] {
					list = append(list, fx.orc.computeStmt(pair{view: "V", fn: fn, attr: a}, classFirst))
				}
			}
			shuffle(rng, list)
			lists[s] = list
		}
		return lists
	}
}
