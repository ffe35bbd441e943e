package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// sessionRec is what one session's goroutine records during a pass. It
// is preallocated so that recording adds nothing to the allocation
// counts the pass brackets.
type sessionRec struct {
	lat   []int64 // wall ns per statement, in issue order
	st    []*stmt // the statement behind each latency
	ticks int64   // Σ Measured.Ticks
	busy  time.Duration
	tally tally
	spans []stmtSpan // nil unless tracing
	// The current round's answers, kept until the round is off the clock
	// and outside the allocation bracket, where checkRound reads them.
	out  []byte // rendered answers back to back
	ends []int  // where each statement's answer ends in out
	errs []error
}

// answerRoom is the room kept for one statement's rendered answer, so
// that keeping a round's answers does not grow the buffer on the clock.
func answerRoom(st *stmt) int {
	switch st.kind {
	case kindDescribe:
		return 512
	case kindHistogram:
		return 4096
	}
	return 128
}

// newSessionRec makes a recorder for `rounds` rounds shaped like list.
func newSessionRec(list []*stmt, rounds int, tracing bool) *sessionRec {
	room := 0
	for _, st := range list {
		room += answerRoom(st)
	}
	n := rounds * len(list)
	r := &sessionRec{lat: make([]int64, 0, n), st: make([]*stmt, 0, n),
		out: make([]byte, 0, room), ends: make([]int, 0, len(list)), errs: make([]error, 0, len(list))}
	if tracing {
		r.spans = make([]stmtSpan, 0, n)
	}
	return r
}

// runList issues one round's statements on one session, closed loop,
// zero think time: each statement is sent when the previous answer has
// arrived. Answers are kept, not checked here: the caller checks them
// with checkRound once the round is over.
func runList(s *session, list []*stmt, rec *sessionRec, tr *tracer) {
	rec.out, rec.ends, rec.errs = rec.out[:0], rec.ends[:0], rec.errs[:0]
	for _, st := range list {
		t0 := time.Now()
		out, m, err := s.run(st.text)
		t1 := time.Now()
		dt := t1.Sub(t0)
		rec.lat = append(rec.lat, dt.Nanoseconds())
		rec.st = append(rec.st, st)
		rec.ticks += m.Ticks
		rec.busy += dt
		rec.out = append(rec.out, out...)
		rec.ends = append(rec.ends, len(rec.out))
		rec.errs = append(rec.errs, err)
		if rec.spans != nil {
			rec.spans = append(rec.spans, stmtSpan{start: tr.since(t0), end: tr.since(t1)})
		}
	}
}

// checkRound has the oracle check the answers runList kept for list.
func (rec *sessionRec) checkRound(list []*stmt) {
	from := 0
	for i, st := range list {
		rec.tally[check(st, rec.out[from:rec.ends[i]], rec.errs[i])]++
		from = rec.ends[i]
	}
}

// pass is the measured outcome of a sequence of rounds.
type pass struct {
	recs       []*sessionRec
	rounds     int
	statements int
	busy       time.Duration // Σ over rounds of the longest session's summed statement time
	roundSps   []float64     // statements/s of each round
	mallocs    uint64        // runtime.MemStats.Mallocs delta over the rounds
	bytes      uint64        // TotalAlloc delta
}

// limit ends a pass: after a fixed number of rounds when rounds > 0,
// otherwise once the measured time reaches budget.
type limit struct {
	rounds int
	budget time.Duration
}

// runPass runs rounds from plan, starting at round `from`, until lim is
// reached or the workload's plan is exhausted. Only the statements are
// on the clock and inside the allocation bracket; building a round and
// checking its answers (the oracle's work) are outside both.
func runPass(fx *fixture, w *workload, plan func(int) [][]*stmt, from int, lim limit, tr *tracer) *pass {
	p := &pass{}
	var m0, m1 runtime.MemStats
	for r := from; ; r++ {
		if w.rounds > 0 && r >= w.rounds {
			break
		}
		if lim.rounds > 0 {
			if p.rounds >= lim.rounds {
				break
			}
		} else if p.busy >= lim.budget {
			break
		}
		lists := plan(r)
		if lists == nil {
			break
		}
		if p.recs == nil {
			// Room for every round of a fixed-work pass, or for 48 rounds
			// of a timed one (four times what the parent commit gets
			// through on one fixture) before a recorder has to grow.
			rounds := 48
			if lim.rounds > 0 {
				rounds = lim.rounds
			}
			for _, list := range lists {
				p.recs = append(p.recs, newSessionRec(list, rounds, tr != nil))
			}
		}
		before := make([]time.Duration, len(p.recs))
		n := 0
		for i, rec := range p.recs {
			before[i] = rec.busy
			n += len(lists[i])
		}
		runtime.ReadMemStats(&m0)
		if len(lists) == 1 {
			runList(fx.sessions[0], lists[0], p.recs[0], tr)
		} else {
			var wg sync.WaitGroup
			for i := range lists {
				wg.Add(1)
				//lint:allow goroutine-confine the sessions workload is two concurrent analyst sessions; each goroutine owns one executor and one recorder, and the round waits for both
				go func(i int) {
					defer wg.Done()
					runList(fx.sessions[i], lists[i], p.recs[i], tr)
				}(i)
			}
			wg.Wait()
		}
		runtime.ReadMemStats(&m1)
		p.mallocs += m1.Mallocs - m0.Mallocs
		p.bytes += m1.TotalAlloc - m0.TotalAlloc
		var longest time.Duration
		for i, rec := range p.recs {
			rec.checkRound(lists[i])
			if d := rec.busy - before[i]; d > longest {
				longest = d
			}
		}
		p.busy += longest
		p.rounds++
		p.statements += n
		p.roundSps = append(p.roundSps, float64(n)/longest.Seconds())
	}
	return p
}

func (p *pass) tally() tally {
	var t tally
	for _, rec := range p.recs {
		t.add(rec.tally)
	}
	return t
}

// latencies pools every session's latencies of the statements keep
// accepts, sorted ascending.
func (p *pass) latencies(keep func(*stmt) bool) []int64 {
	var out []int64
	for _, rec := range p.recs {
		for i, st := range rec.st {
			if keep == nil || keep(st) {
				out = append(out, rec.lat[i])
			}
		}
	}
	return sorted(out)
}

func ofClass(c class) func(*stmt) bool {
	return func(st *stmt) bool { return st.class == c }
}

// runResult is one run of one workload with tracing off.
type runResult struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Rounds     int                `json:"rounds"`
	Statements int                `json:"statements"`
	TailPct    float64            `json:"tail_percentile"`
	TailBeyond int                `json:"tail_samples_beyond"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Outcomes   tally              `json:"outcomes"` // ok, wrong, error, shed
	Metrics    map[string]float64 `json:"metrics"`
}

// options are the benchmark's own run controls (none reaches the program).
type options struct {
	sc     scale
	setups int           // fixtures per run: setup_s is their median, each gets budget/setups
	budget time.Duration // measured time per run
	outDir string
}

// planSeed derives the statement-order stream from the run seed, apart
// from the data stream.
func planSeed(seed int64) int64 { return seed*2654435761 + 1 }

// add folds another fixture's pass into p.
func (p *pass) add(o *pass) {
	p.recs = append(p.recs, o.recs...)
	p.rounds += o.rounds
	p.statements += o.statements
	p.busy += o.busy
	p.roundSps = append(p.roundSps, o.roundSps...)
	p.mallocs += o.mallocs
	p.bytes += o.bytes
}

// runOnce is one untraced run. The fixture is set up opt.setups times
// from the same seed and each fixture gets an equal share of the
// measured time, so setup_s is a median over the set-ups and the timed
// metrics draw their rounds from every fixture: a workload whose rounds
// use up cold pairs gets that many times the rounds, and a stretch of
// interference on the machine cannot own a run.
func runOnce(w *workload, seed int64, opt options) (*runResult, error) {
	var (
		fx     *fixture
		all    pass
		setups []float64
		t      tally
	)
	lim := limit{budget: opt.budget / time.Duration(opt.setups)}
	for i := 0; i < opt.setups; i++ {
		fx = nil
		runtime.GC() // the discarded fixture must not be collected on the next one's clock
		var err error
		if fx, err = setUp(w, seed, opt.sc); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, fx.setup.Seconds())
		plan := w.plan(fx, rand.New(rand.NewSource(planSeed(seed)+int64(i))))
		runtime.GC()
		p := runPass(fx, w, plan, 0, lim, nil)
		all.add(p)
		t.add(fx.tally)
		t.add(p.tally())
	}
	if all.statements == 0 {
		return nil, fmt.Errorf("%s: the timed phase ran no statement", w.name)
	}
	lat := all.latencies(nil)
	res := &runResult{
		Workload: w.name, Seed: seed, Rounds: all.rounds, Statements: all.statements,
		TailPct: w.tailPct, TailBeyond: beyond(len(lat), w.tailPct),
		Attempted: t.attempted(), Failed: t.failed(), Outcomes: t,
		Metrics: map[string]float64{
			"setup_s":         median(setups),
			"throughput_sps":  median(all.roundSps),
			"stmt_p50_us":     percentileUs(lat, 50),
			"stmt_tail_us":    percentileUs(lat, w.tailPct),
			"allocs_per_stmt": float64(all.mallocs) / float64(all.statements),
			"bytes_per_stmt":  float64(all.bytes) / float64(all.statements),
		},
	}
	// Live heap: what the program still holds for the last fixture —
	// data, store, summary and maintenance state — once the harness has
	// let go of its own.
	d := fx.d
	fx, all, lat = nil, pass{}, nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.Metrics["live_heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(d)
	return res, nil
}
