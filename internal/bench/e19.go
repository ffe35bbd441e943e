package bench

import (
	"bytes"
	"fmt"

	"statdb/internal/core"
	"statdb/internal/load"
	"statdb/internal/obs"
	"statdb/internal/query"
	"statdb/internal/workload"
)

// e19Ladder is the closed-loop session ladder, in ascending order.
var e19Ladder = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}

const (
	e19Rows  = 4096 // microdata rows behind the materialized view
	e19Ops   = 8    // statements per session
	e19Seed  = 19
	e19Think = 400 // closed-loop mean think time, µs
)

// e19Fixture builds a fresh engine with the view the traces compute
// over. Each ladder point gets its own fixture so Summary-DB warmth
// never leaks between configurations.
func e19Fixture() (*core.DBMS, error) {
	d := core.New()
	d.SetParallelism(2)
	if err := d.LoadRaw("micro", workload.Microdata(e19Rows, e19Seed)); err != nil {
		return nil, err
	}
	var out bytes.Buffer
	e := query.NewExecutor(d, "analyst", &out)
	if err := e.Run("materialize mv from micro project AGE,SALARY"); err != nil {
		return nil, err
	}
	return d, nil
}

func e19Cfg(d *core.DBMS, sessions int) load.Config {
	return load.Config{
		Sessions:   sessions,
		Ops:        e19Ops,
		Seed:       e19Seed,
		ThinkUs:    e19Think,
		View:       "mv",
		Attrs:      []string{"AGE", "SALARY"},
		RepeatBias: 0.5,
		NewSession: load.InProcess(d, "analyst"),
		Clock:      load.NewClock(),
	}
}

// E19LoadSaturation drives the closed-loop session ladder against one
// engine configuration per point (admission gate at its default single
// slot — the engine's internal serialization made observable) and
// reports throughput and latency percentiles per session count. The
// queueing-theory shape under test: with think time Z and service time
// S, throughput grows ~N/(Z+S) until the knee N* ≈ (Z+S)/S, and past
// the knee added sessions buy queue wait, not throughput — p99 climbs
// while throughput plateaus.
//
// The correctness half is deterministic and exact: every session's
// answer digest at every ladder point must equal a serial replay of the
// same statement stream, because reads commute and the gate only
// reorders, never rewrites. (Tick totals are NOT compared: a concurrent
// neighbour may warm the Summary DB first, turning this session's
// recompute into a cache hit. Answers are invariant; costs are shared —
// that sharing is the paper's thesis.) A final open-loop row overdrives
// a 4-deep admission queue with 64 ungated-arrival sessions to show the
// queueing-dominated regime ending in shed, not collapse.
func E19LoadSaturation() (*Table, error) {
	t := &Table{
		ID:     "E19",
		Title:  "Load saturation: closed-loop session ladder through the admission gate (wall clock; digests exact)",
		Claim:  "throughput scales with sessions until the think-time knee, then plateaus while p99 absorbs the queueing; answers stay bit-identical to serial replay at every concurrency; an overdriven open loop sheds at the gate instead of collapsing",
		Header: []string{"sessions", "arrival", "statements", "shed", "throughput/s", "p50_us", "p99_us", "answers==serial"},
	}

	// Serial reference digests, one per session index: a single fresh
	// engine replays every stream back-to-back. Cache state differs from
	// any concurrent run, which is exactly the point — answers must not
	// depend on it.
	ladder := e19Ladder
	maxN := ladder[len(ladder)-1] // the ladder ascends
	ref := make([]uint64, maxN)
	{
		d, err := e19Fixture()
		if err != nil {
			return nil, err
		}
		cfg := e19Cfg(d, maxN)
		var buf bytes.Buffer
		e := query.NewExecutor(d, "analyst", &buf)
		exec := func(stmt string) (string, query.Measured, error) {
			buf.Reset()
			m, err := e.RunMeasured(stmt)
			return buf.String(), m, err
		}
		for i := range ref {
			if ref[i], err = cfg.Replay(i, exec); err != nil {
				return nil, err
			}
		}
	}

	mismatched := 0
	throughput := make([]float64, len(ladder))
	for pt, n := range ladder {
		d, err := e19Fixture()
		if err != nil {
			return nil, err
		}
		drv, err := load.New(e19Cfg(d, n))
		if err != nil {
			return nil, err
		}
		rep, err := drv.Run()
		if err != nil {
			return nil, err
		}
		if rep.Errors > 0 || rep.Shed > 0 {
			return nil, fmt.Errorf("bench: E19 closed loop at %d sessions: %d errors, %d shed", n, rep.Errors, rep.Shed)
		}
		match := "yes"
		for i, sr := range rep.PerSession {
			if sr.Digest != ref[i] {
				match = "NO"
				mismatched++
			}
		}
		throughput[pt] = rep.Throughput
		t.AddRow(n, "closed", rep.Statements, rep.Shed,
			fmt.Sprintf("%.0f", rep.Throughput), rep.P50Us, rep.P99Us, match)
	}

	// Knee: where the throughput plateau begins — the smallest session
	// count reaching 70% of the ladder's peak. Below it sessions buy
	// ~linear throughput; above it they buy queue depth. (Defined
	// against the peak, not point-to-point ratios, so one noisy ladder
	// point cannot fake a knee.)
	peak := 0.0
	for _, thr := range throughput {
		if thr > peak {
			peak = thr
		}
	}
	knee := ladder[len(ladder)-1]
	for i, thr := range throughput {
		if thr >= 0.7*peak {
			knee = ladder[i]
			break
		}
	}

	// Overdrive: a head-of-line stall under unpaced open-loop arrivals.
	// The bounded queue must shed the overrun (typed, counted) instead
	// of building unbounded backlog, and drain cleanly once the stall
	// clears.
	overdrive, err := e19Overdrive()
	if err != nil {
		return nil, err
	}
	t.AddRow(overdrive.Sessions, "open", overdrive.Statements, overdrive.Shed,
		fmt.Sprintf("%.0f", overdrive.Throughput), overdrive.P50Us, overdrive.P99Us, "n/a (sheds)")

	t.Finding = fmt.Sprintf(
		"closed-loop throughput rose from %.0f/s at %d sessions to a peak of %.0f/s, with the plateau "+
			"beginning near %d sessions — past the knee doubling sessions buys queue depth, not throughput; "+
			"the stalled open loop shed %d of %d statements at the 4-deep queue, completed the rest, and drained cleanly; "+
			"every closed-loop session digest matched its serial replay exactly (%d sessions checked per point)",
		throughput[0], ladder[0], peak, knee,
		overdrive.Shed, overdrive.Statements, len(ref))
	switch {
	case mismatched > 0:
		t.Finding += fmt.Sprintf(" [CLAIM FAILED: %d session digests diverged from serial replay]", mismatched)
	case overdrive.Shed == 0:
		t.Finding += " [CLAIM FAILED: overdriven open loop shed nothing]"
	}
	return t, nil
}

// e19Overdrive runs the open-loop overrun: 64 sessions issuing with no
// inter-arrival pacing against a single-slot gate with a 4-deep queue,
// while the experiment itself holds the slot — a head-of-line stall.
// With the slot held, the first four arrivals park, and every arrival
// after them must shed; the stall is released as soon as shedding is
// observed (with a generous time cap as a deadlock backstop), after
// which the parked and remaining statements drain. Holding the slot
// makes the queue overflow a certainty on any machine — on a single-P
// scheduler, microsecond statements otherwise finish before a fifth
// waiter can even arrive.
func e19Overdrive() (*load.Report, error) {
	d, err := e19Fixture()
	if err != nil {
		return nil, err
	}
	clock := load.NewClock()
	gate := core.NewGate(core.GateConfig{
		Slots: 1,
		Queue: 4,
		Reg:   d.MetricsRegistry(),
		Wall:  clock.NowUs,
	})
	d.SetGate(gate)

	release, err := gate.Acquire(nil)
	if err != nil {
		return nil, err
	}
	//lint:allow goroutine-confine one-shot stall release; the load run it unblocks is driven under -race by the bench shape test
	go func() {
		defer release()
		for i := 0; i < 10000; i++ { // cap the stall at ~1s wall
			if d.Metrics().Counters[obs.MGateShed] > 0 {
				return
			}
			clock.Sleep(100)
		}
	}()

	cfg := e19Cfg(d, 64)
	cfg.Arrival = "open"
	cfg.ThinkUs = 0
	cfg.RateUs = 0 // as fast as possible: offered load far past capacity
	cfg.Clock = clock
	drv, err := load.New(cfg)
	if err != nil {
		return nil, err
	}
	return drv.Run()
}
