package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"statdb/internal/core"
	"statdb/internal/load"
	"statdb/internal/obs"
	"statdb/internal/query"
	"statdb/internal/shard"
	"statdb/internal/storage"
	"statdb/internal/view"
)

// analyst owns every view the benchmark materializes; all sessions act
// as this analyst, as they do under `statdb serve`.
const analyst = "analyst"

// scale sizes a run. Full is what BENCHMARK.json measures; tiny is the
// same code path at 1 % of the data and counts, for the tier-1 test.
type scale struct {
	name string
	rows int // rows per view
	div  int // statement counts are divided by this
}

var scales = map[string]scale{
	"full": {name: "full", rows: 200_000, div: 1},
	"tiny": {name: "tiny", rows: 2_000, div: 100},
}

// count scales a full-size statement count, never below floor.
func (sc scale) count(n, floor int) int {
	if n /= sc.div; n < floor {
		return floor
	}
	return n
}

// backing is what the benchmark attaches behind a materialized view.
type backing uint8

const (
	// backMemory attaches nothing: what every REPL/serve user gets,
	// since no statement attaches a store.
	backMemory backing = iota
	// backTransposedSmall is a transposed file behind a 64-frame pool:
	// one Plain column is several hundred pages, so every column read
	// misses the pool and goes to the device.
	backTransposedSmall
	// backTransposedFit is a transposed file behind a pool larger than
	// the whole file: reads hit, updates dirty resident pages.
	backTransposedFit
	// backSharded partitions the view over four healthy MemDevices.
	backSharded
)

const (
	smallPoolFrames = 64
	shardCount      = 4
)

// fitPoolFrames sizes a pool that holds a whole transposed file: a Plain
// page keeps about 450 cells, so one frame per 256 cells leaves room.
func fitPoolFrames(rows, cols int) int { return 64 + rows*cols/256 }

// session is one analyst session, built exactly as cmd/statdb's
// sessionHub.session builds them.
type session struct {
	e   *query.Executor
	buf bytes.Buffer
}

func newSession(d *core.DBMS, id string, elog *obs.EventLog) *session {
	s := &session{}
	s.e = query.NewExecutor(d, analyst, &s.buf)
	s.e.SetSession(id)
	s.e.SetEventLog(elog)
	s.e.SetSessionBudget(obs.NewBudget(0, 0))
	return s
}

// run sends one statement through the front door and returns the
// rendered answer (valid until the session's next statement).
func (s *session) run(text string) ([]byte, query.Measured, error) {
	s.buf.Reset()
	m, err := s.e.RunMeasured(text)
	return s.buf.Bytes(), m, err
}

// tally counts statement outcomes for the result's attempted/failed.
type tally [numOutcomes]int

func (t *tally) add(o tally) {
	for i := range t {
		t[i] += o[i]
	}
}

func (t tally) attempted() int {
	n := 0
	for _, c := range t {
		n += c
	}
	return n
}

func (t tally) failed() int { return t.attempted() - t[outcomeOK] }

// fixture is everything a workload's timed phase runs against.
type fixture struct {
	sc         scale
	hotTriples int
	d          *core.DBMS
	sessions   []*session
	surv       *survey
	views      []viewSpec
	orc        *oracle
	// setup is the program-facing set-up time: generate, LoadRaw,
	// materialize, attach, warm-up. Oracle work is not on this clock.
	setup time.Duration
	// build is the materialize statements' share of setup (view.build_s).
	build time.Duration
	// warm holds the warm-up statements with their latencies, so a
	// traced run can report first-time cost by state family on
	// workloads whose timed phase has no first statements.
	warm    []*stmt
	warmLat []int64
	tally   tally
}

// timed adds fn's duration to the set-up clock.
func (fx *fixture) timed(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	dt := time.Since(t0)
	fx.setup += dt
	return dt, err
}

// view fetches a materialized view through the analyst handle.
func (fx *fixture) view(name string) (*view.View, error) {
	return fx.d.Analyst(analyst).View(name)
}

// setUp builds the workload's fixture from seed: everything before the
// timed phase.
func setUp(w *workload, seed int64, sc scale) (*fixture, error) {
	fx := &fixture{sc: sc, hotTriples: w.hotTriples, orc: newOracle()}
	rawRows := sc.rows + sc.rows/20
	k := 3 * (w.hotTriples + w.coldTriples)

	if _, err := fx.timed(func() error {
		fx.surv = genSurvey(seed, rawRows, k)
		ds, err := fx.surv.dataset()
		if err != nil {
			return err
		}
		// Program defaults throughout: the benchmark owns no knob.
		fx.d = core.New()
		return fx.d.LoadRaw("survey", ds)
	}); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}

	// The program installs its own default admission gate; the returned
	// factory is not used — sessions are built the serve way below.
	load.InProcess(fx.d, analyst)
	elog, err := obs.NewEventLog(obs.EventLogConfig{W: io.Discard})
	if err != nil {
		return nil, err
	}
	for i := 0; i < w.sessions; i++ {
		fx.sessions = append(fx.sessions, newSession(fx.d, fmt.Sprintf("s%d", i), elog))
	}

	fx.views = w.views(sc, rawRows, fx.surv)
	for _, vs := range fx.views {
		st := materializeStmt(vs, rawRows)
		dt, err := fx.issue(st)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", st.text, err)
		}
		fx.build += dt
		fx.orc.addView(fx.surv, vs)
		if _, err := fx.timed(func() error { return fx.attach(w.backing, vs.name) }); err != nil {
			return nil, fmt.Errorf("attach %s: %w", vs.name, err)
		}
	}

	for _, p := range hotPairs(fx) {
		st := fx.orc.computeStmt(p, classFirst)
		dt, err := fx.issue(st)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", st.text, err)
		}
		fx.warm = append(fx.warm, st)
		fx.warmLat = append(fx.warmLat, dt.Nanoseconds())
	}
	return fx, nil
}

// issue runs one set-up statement on session 0 on the set-up clock and
// then, off the clock, checks its answer. A wrong answer is tallied, not
// fatal; an error ends set-up, since the fixture the timed phase needs
// does not exist.
func (fx *fixture) issue(st *stmt) (time.Duration, error) {
	var out []byte
	dt, err := fx.timed(func() (err error) {
		out, _, err = fx.sessions[0].run(st.text)
		return err
	})
	fx.tally[check(st, out, err)]++
	return dt, err
}

func (fx *fixture) attach(b backing, name string) error {
	switch b {
	case backMemory:
		return nil
	case backSharded:
		_, err := fx.d.ShardView(name, shard.Config{Shards: shardCount})
		return err
	}
	v, err := fx.view(name)
	if err != nil {
		return err
	}
	frames := fitPoolFrames(v.Rows(), v.Dataset().Schema().Len())
	if b == backTransposedSmall {
		frames = smallPoolFrames
	}
	return v.AttachStore(view.BackingTransposed, storage.DefaultDiskCost(), frames)
}
