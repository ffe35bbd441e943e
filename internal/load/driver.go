// Package load is the deterministic multi-session load driver: N
// simulated analyst sessions replay internal/workload traces through
// the query layer concurrently, so queueing, admission, and saturation
// — invisible to every single-statement test — become measurable.
//
// Determinism has a precise meaning here. Each session's statement
// stream, think-time schedule, and tick accounting derive from the
// run's seed alone; what the operating system schedules is only *when*
// each statement runs, never *what* it computes. With updates disabled
// the answer stream of session k is therefore bit-identical whether it
// runs alone or beside 255 others — the property E19 asserts under the
// race detector — and per-session tick totals conserve exactly. Wall
// time is the one nondeterministic output, and every read of it is
// confined to the Clock shim in clock.go.
package load

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"
	"sync"

	"statdb/internal/core"
	"statdb/internal/obs"
	"statdb/internal/query"
	"statdb/internal/workload"
)

// Exec runs one statement on behalf of a session, returning the
// rendered answer and the statement's measurement. In-process targets
// wrap query.Executor.RunMeasured; remote targets POST to a live
// statdb serve (and measure nothing — the server does).
type Exec func(stmt string) (out string, m query.Measured, err error)

// Config describes one load run.
type Config struct {
	// Sessions is the number of concurrent simulated analysts (>= 1).
	Sessions int
	// Ops is the statement count per session (>= 1).
	Ops int
	// Seed derives every per-session trace and arrival schedule.
	Seed int64
	// Arrival picks the loop model: "closed" (default) issues the next
	// statement after the previous answer plus a think time; "open"
	// issues on a precomputed schedule regardless of completions, the
	// model that overruns queues and sheds.
	Arrival string
	// ThinkUs is the closed-loop mean think time between a session's
	// statements, in wall microseconds (0 = no thinking).
	ThinkUs int64
	// RateUs is the open-loop mean inter-arrival gap per session, in
	// wall microseconds (0 = issue as fast as possible).
	RateUs int64
	// View and Attrs are the trace's target: compute statements are
	// drawn over these attributes on this view.
	View  string
	Attrs []string
	// Fns optionally overrides the workload function mix.
	Fns []string
	// RepeatBias and UpdateEvery pass through to workload.Trace. Updates
	// make answers order-dependent across sessions, so digest
	// comparisons only hold with UpdateEvery = 0.
	RepeatBias  float64
	UpdateEvery int
	// SessionTicks is each session's tick quota (0 = unlimited): spent
	// sessions are shed at the admission gate.
	SessionTicks int64
	// NewSession builds the statement sink for one session; the budget
	// is the session's quota, which the driver charges with every
	// statement's measured ticks and the gate charges with queue waits.
	NewSession func(id string, budget *obs.Budget) Exec
	// Clock is the wall shim: nil disables think times, sleeps, and wall
	// latency measurement — the deterministic configuration.
	Clock *Clock
}

// SessionResult is one session's outcome.
type SessionResult struct {
	ID         string `json:"id"`
	Statements int64  `json:"statements"` // statements issued
	Errors     int64  `json:"errors"`     // failures other than shed
	Shed       int64  `json:"shed"`       // rejected at admission
	Ticks      int64  `json:"ticks"`      // sum of measured statement ticks
	Digest     uint64 `json:"digest"`     // FNV-1a over the statement/answer stream
}

// Report is the whole run's outcome. Wall-derived fields (Elapsed,
// throughput, latency percentiles) are zero when the run had no Clock.
type Report struct {
	Sessions   int             `json:"sessions"`
	Statements int64           `json:"statements"`
	Errors     int64           `json:"errors"`
	Shed       int64           `json:"shed"`
	Ticks      int64           `json:"ticks"`
	Digest     uint64          `json:"digest"` // order-independent fold of session digests
	ElapsedUs  int64           `json:"elapsed_us,omitempty"`
	Throughput float64         `json:"throughput,omitempty"` // statements per wall second
	P50Us      int64           `json:"p50_us,omitempty"`     // exact percentiles over every
	P90Us      int64           `json:"p90_us,omitempty"`     // measured statement latency,
	P99Us      int64           `json:"p99_us,omitempty"`     // from the sorted sample
	PerSession []SessionResult `json:"per_session,omitempty"`
	// Root is the stitched span tree: one "load" root, one "session"
	// child per session (joined in session order, so the tree is
	// deterministic), each charged with its measured statement ticks.
	Root *obs.Span `json:"-"`
}

// lcg steps a 64-bit linear congruential generator — the driver's
// seeded randomness. math/rand is banned in deterministic packages;
// this keeps schedules reproducible byte-for-byte across Go versions.
func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

// jitterUs spreads a mean gap over [mean/2, 3*mean/2) using the given
// LCG state, returning the new state.
func jitterUs(mean int64, state uint64) (int64, uint64) {
	if mean <= 0 {
		return 0, state
	}
	state = lcg(state)
	frac := float64(state>>11) / float64(1<<53) // [0,1)
	return mean/2 + int64(frac*float64(mean)), state
}

// Statement renders one workload op as query-language text.
func Statement(op workload.Op, view string) string {
	if op.Fn == "update" {
		// A no-op-shaped maintenance statement: touches the attribute's
		// summary without needing data-dependent predicates.
		return fmt.Sprintf("update %s set %s = 12345 where %s < 0", view, op.Attr, op.Attr)
	}
	return fmt.Sprintf("compute %s %s on %s", op.Fn, op.Attr, view)
}

// SessionID names session i ("s000", "s001", ...).
func SessionID(i int) string { return fmt.Sprintf("s%03d", i) }

// digestStmt folds one statement outcome into a session digest. Errors
// fold too (marked with '!'): a failure mode that appears only under
// concurrency must break the serial comparison.
func digestStmt(h io.Writer, stmt, out string, err error) {
	if err != nil {
		fmt.Fprintf(h, "%s\x00!%s\x01", stmt, err.Error())
		return
	}
	fmt.Fprintf(h, "%s\x00%s\x01", stmt, out)
}

// Replay runs session i's statement stream serially through exec and
// returns the session digest — the serial reference E19 compares each
// concurrent session against. No arrival model, no gate waits: just the
// statements, in order, one at a time.
func (cfg Config) Replay(i int, exec Exec) (uint64, error) {
	stmts, err := cfg.Trace(i)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	for _, stmt := range stmts {
		out, _, err := exec(stmt)
		digestStmt(h, stmt, out, err)
	}
	return h.Sum64(), nil
}

// Trace returns session i's deterministic statement stream under cfg:
// the same (cfg, i) always yields the same statements, which is what
// lets E19 compare a session's concurrent answers against a serial
// replay of the same stream.
func (cfg Config) Trace(i int) ([]string, error) {
	ops, err := workload.Trace(workload.SessionSpec{
		Attrs:       cfg.Attrs,
		Fns:         cfg.Fns,
		Ops:         cfg.Ops,
		RepeatBias:  cfg.RepeatBias,
		UpdateEvery: cfg.UpdateEvery,
		Seed:        cfg.Seed + int64(i)*7919, // distinct prime-strided per-session seeds
	})
	if err != nil {
		return nil, err
	}
	stmts := make([]string, len(ops))
	for j, op := range ops {
		stmts[j] = Statement(op, cfg.View)
	}
	return stmts, nil
}

// Driver runs one configured load. Create with New, run with Run.
type Driver struct {
	cfg Config
}

// New validates cfg and builds a driver.
func New(cfg Config) (*Driver, error) {
	if cfg.Sessions < 1 {
		return nil, fmt.Errorf("load: sessions >= 1 required, got %d", cfg.Sessions)
	}
	if cfg.Ops < 1 {
		return nil, fmt.Errorf("load: ops >= 1 required, got %d", cfg.Ops)
	}
	if cfg.NewSession == nil {
		return nil, fmt.Errorf("load: NewSession sink required")
	}
	if cfg.View == "" || len(cfg.Attrs) == 0 {
		return nil, fmt.Errorf("load: view and attrs required")
	}
	switch cfg.Arrival {
	case "", "closed", "open":
	default:
		return nil, fmt.Errorf("load: arrival %q (want closed or open)", cfg.Arrival)
	}
	return &Driver{cfg: cfg}, nil
}

// sessionState is one session's working set inside Run.
type sessionState struct {
	res       SessionResult
	latencies []int64
	tracer    *obs.Tracer
}

// Run executes the configured load and blocks until every session
// drains. It is safe to call once per Driver.
func (d *Driver) Run() (*Report, error) {
	cfg := d.cfg
	root := obs.NewTracer()
	rootSpan := root.Begin("load", obs.Attr{Key: "sessions", Value: fmt.Sprint(cfg.Sessions)})

	states := make([]*sessionState, cfg.Sessions)
	var wg sync.WaitGroup
	start := cfg.Clock.NowUs()
	for i := 0; i < cfg.Sessions; i++ {
		id := SessionID(i)
		stmts, err := cfg.Trace(i)
		if err != nil {
			return nil, err
		}
		st := &sessionState{res: SessionResult{ID: id}, tracer: root.Adopt(rootSpan)}
		states[i] = st
		budget := obs.NewBudget(cfg.SessionTicks, 0)
		exec := cfg.NewSession(id, budget)
		if exec == nil {
			return nil, fmt.Errorf("load: NewSession(%s) returned nil", id)
		}
		wg.Add(1)
		go func(i int, st *sessionState) {
			defer wg.Done()
			d.runSession(i, st, stmts, budget, exec)
		}(i, st)
	}
	wg.Wait()
	rootSpan.End()
	// Join in session order: the stitched tree is identical regardless
	// of how the scheduler interleaved the sessions.
	for _, st := range states {
		st.tracer.Join()
	}

	rep := &Report{Sessions: cfg.Sessions, Root: rootSpan}
	var all []int64
	for _, st := range states {
		rep.Statements += st.res.Statements
		rep.Errors += st.res.Errors
		rep.Shed += st.res.Shed
		rep.Ticks += st.res.Ticks
		// XOR-fold: order-independent, so the combined digest is stable
		// across scheduling too.
		rep.Digest ^= st.res.Digest
		rep.PerSession = append(rep.PerSession, st.res)
		all = append(all, st.latencies...)
	}
	if cfg.Clock != nil {
		rep.ElapsedUs = cfg.Clock.NowUs() - start
		if rep.ElapsedUs > 0 {
			rep.Throughput = float64(rep.Statements) / (float64(rep.ElapsedUs) / 1e6)
		}
		if len(all) > 0 {
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			pct := func(q float64) int64 {
				k := int(q * float64(len(all)-1))
				return all[k]
			}
			rep.P50Us, rep.P90Us, rep.P99Us = pct(0.50), pct(0.90), pct(0.99)
		}
	}
	return rep, nil
}

// runSession replays one session's statements under its arrival model,
// recording results into st. The session's tracer carries one span per
// statement, charged with the statement's measured ticks, so folding
// the stitched tree recovers per-session cost attribution.
func (d *Driver) runSession(i int, st *sessionState, stmts []string, budget *obs.Budget, exec Exec) {
	cfg := d.cfg
	span := st.tracer.Begin("session", obs.Attr{Key: "id", Value: st.res.ID})
	defer span.End()
	h := fnv.New64a()
	rng := uint64(cfg.Seed)*2654435761 + uint64(i) + 1
	open := cfg.Arrival == "open"
	var nextAt int64
	if open {
		nextAt = cfg.Clock.NowUs()
	}
	for _, stmt := range stmts {
		var gap int64
		if open {
			gap, rng = jitterUs(cfg.RateUs, rng)
			nextAt += gap
			if now := cfg.Clock.NowUs(); nextAt > now {
				cfg.Clock.Sleep(nextAt - now)
			}
		} else {
			gap, rng = jitterUs(cfg.ThinkUs, rng)
			cfg.Clock.Sleep(gap)
		}
		t0 := cfg.Clock.NowUs()
		out, m, err := exec(stmt)
		lat := cfg.Clock.NowUs() - t0
		st.res.Statements++
		if cfg.Clock != nil {
			st.latencies = append(st.latencies, lat)
		}
		name := m.Verb
		if name == "" {
			name = "statement"
		}
		sspan := st.tracer.Begin(name)
		st.tracer.Charge(m.Ticks)
		sspan.End()
		st.res.Ticks += m.Ticks
		budget.ChargeTicks(m.Ticks)
		if err != nil {
			if isShed(err) {
				st.res.Shed++
			} else {
				st.res.Errors++
			}
		}
		digestStmt(h, stmt, out, err)
	}
	st.res.Digest = h.Sum64()
}

// isShed reports whether err is an admission rejection — matched
// through the error text as well as the sentinel, so remote sessions
// (whose errors crossed HTTP as strings) classify the same way.
func isShed(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, core.ErrShed) || strings.Contains(err.Error(), "admission shed")
}
