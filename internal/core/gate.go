package core

import (
	"errors"
	"fmt"
	"sync"

	"statdb/internal/obs"
)

// ErrShed is the sentinel every admission rejection wraps. Callers that
// only care whether a statement was shed (as opposed to failing inside
// the engine) test errors.Is(err, ErrShed); callers that want the
// queue state at rejection unwrap the *ShedError with errors.As.
var ErrShed = errors.New("core: admission shed")

// ShedError reports why the gate refused a statement: the queue was
// full, or the session's budget was already spent when it arrived. It
// wraps ErrShed, and — for quota rejections — the session's latched
// *obs.BudgetError, so errors.As reaches both.
type ShedError struct {
	Reason string // "queue full" or "session budget spent"
	Queued int    // waiters at the moment of rejection
	cause  error  // the latched budget error, when the quota shed
}

func (e *ShedError) Error() string {
	msg := fmt.Sprintf("core: admission shed: %s (%d queued)", e.Reason, e.Queued)
	if e.cause != nil {
		msg += ": " + e.cause.Error()
	}
	return msg
}

func (e *ShedError) Unwrap() []error {
	if e.cause != nil {
		return []error{ErrShed, e.cause}
	}
	return []error{ErrShed}
}

// GateConfig configures an admission Gate.
type GateConfig struct {
	// Slots is the number of statements allowed past the gate at once.
	// The default 1 matches the engine, which serializes statement
	// execution internally: the gate's job is not to add parallelism but
	// to make the resulting contention observable and bounded.
	Slots int
	// Queue bounds the waiters behind the slots. A statement arriving
	// with Queue waiters already parked is shed with a *ShedError
	// instead of parking unboundedly. 0 means no queue: every statement
	// that cannot take a slot immediately is shed.
	Queue int
	// Reg receives the gate's telemetry (query.wait_* families). Nil
	// leaves the gate unobserved but still enforcing.
	Reg *obs.Registry
	// Ticks and Wall are the injected clocks wait time is measured on:
	// virtual ticks for deterministic attribution, wall microseconds for
	// what an analyst actually felt. The gate itself never reads a
	// clock — a nil func records that dimension as zero.
	Ticks func() int64
	Wall  func() int64
}

// Gate is the admission layer in front of the query executor: a
// bounded-concurrency semaphore with a bounded wait queue, metering
// admission, queue depth, wait time (virtual ticks and wall µs), and
// shed decisions through the query.wait_* families. Session quotas are
// enforced at the door: a statement whose session Budget has already
// latched a breach is shed before it queues, so one analyst who spent
// their budget cannot keep occupying the queue other sessions need.
//
// A nil Gate admits everything immediately — the ungated configuration
// every existing caller gets.
type Gate struct {
	slots int
	queue int
	ticks func() int64
	wall  func() int64

	sem chan struct{}

	mu     sync.Mutex
	queued int // guarded by mu

	mAdmitted *obs.Counter
	mShed     *obs.Counter
	gQueue    *obs.Gauge
	gInflight *obs.Gauge
	hTicks    *obs.Histogram
	hWall     *obs.Histogram
}

// NewGate builds a gate from cfg, applying defaults: Slots < 1 becomes
// 1, Queue < 0 becomes 0.
func NewGate(cfg GateConfig) *Gate {
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	if cfg.Queue < 0 {
		cfg.Queue = 0
	}
	g := &Gate{
		slots: cfg.Slots,
		queue: cfg.Queue,
		ticks: cfg.Ticks,
		wall:  cfg.Wall,
		sem:   make(chan struct{}, cfg.Slots),
	}
	if cfg.Reg != nil {
		g.mAdmitted = cfg.Reg.Counter(obs.MGateAdmitted)
		g.mShed = cfg.Reg.Counter(obs.MGateShed)
		g.gQueue = cfg.Reg.Gauge(obs.MGateQueue)
		g.gInflight = cfg.Reg.Gauge(obs.MGateInflight)
		g.hTicks = cfg.Reg.Histogram(obs.MGateWaitTicks, obs.WaitTicksBounds())
		g.hWall = cfg.Reg.Histogram(obs.MGateWaitWall, obs.WallUsBounds())
	}
	return g
}

func (g *Gate) now() (ticks, wall int64) {
	if g.ticks != nil {
		ticks = g.ticks()
	}
	if g.wall != nil {
		wall = g.wall()
	}
	return ticks, wall
}

// Acquire admits one statement, blocking in the bounded queue when all
// slots are held. On admission it returns a release func the caller
// must invoke exactly once when the statement finishes (extra calls
// no-op). On rejection it returns a *ShedError wrapping ErrShed.
//
// session, when non-nil, is the calling session's quota: a budget that
// has already latched a breach is shed at the door, and the ticks a
// statement spends queued are charged against it — waiting is work the
// session bought.
//
// Every admission observes its wait into the wait histograms — zero
// for the fast path — so the histogram count equals the admitted
// counter and wait percentiles have a sound denominator.
func (g *Gate) Acquire(session *obs.Budget) (release func(), err error) {
	if g == nil {
		return func() {}, nil
	}
	if berr := session.Err(); berr != nil {
		g.mu.Lock()
		q := g.queued
		g.mu.Unlock()
		g.mShed.Inc()
		return nil, &ShedError{Reason: "session budget spent", Queued: q, cause: berr}
	}

	var waitTicks, waitWall int64
	select {
	case g.sem <- struct{}{}:
		// Fast path: a slot was free. The clocks are not touched; the
		// wait is an exact zero.
	default:
		g.mu.Lock()
		if g.queued >= g.queue {
			q := g.queued
			g.mu.Unlock()
			g.mShed.Inc()
			return nil, &ShedError{Reason: "queue full", Queued: q}
		}
		g.queued++
		g.mu.Unlock()
		g.gQueue.Add(1)
		t0, w0 := g.now()
		g.sem <- struct{}{}
		t1, w1 := g.now()
		g.gQueue.Add(-1)
		g.mu.Lock()
		g.queued--
		g.mu.Unlock()
		waitTicks, waitWall = t1-t0, w1-w0
	}

	g.hTicks.Observe(waitTicks)
	g.hWall.Observe(waitWall)
	// Waiting is work the session bought: queue ticks burn its quota,
	// so a session stuck behind heavy queries runs out like one running
	// heavy queries of its own.
	session.ChargeTicks(waitTicks)
	g.mAdmitted.Inc()
	g.gInflight.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			g.gInflight.Add(-1)
			<-g.sem
		})
	}, nil
}
