// Package dbmachine simulates the database machine support of
// Section 4.3. The authors' stated motivation was to back a statistical
// DBMS with a database machine; the section sketches four uses:
//
//  1. materializing views by executing relational operators (selection,
//     projection, aggregate) on the data stream as it leaves the raw
//     database, so the host never touches filtered-out rows;
//  2. managing the Summary Databases with a "pseudo-associative disk"
//     [SLOT70] whose search is parallel across cells;
//  3. recomputing invalidated summary functions near the stored view;
//  4. computing vector results (e.g. residuals) to be stored back.
//
// The machine here is a processor-array cost model: work that the host
// would do serially is divided across P processors, with per-row
// processing charged on the machine's own virtual clock and only
// qualifying rows shipped to the host. Aggregates additionally run on
// real goroutines (one per simulated processor) dispatched through the
// shared chunked-execution pool (internal/exec — the goroutine-confine
// contract keeps all fan-out inside that race-audited surface), so the
// parallel merge logic is genuinely exercised.
package dbmachine

import (
	"fmt"

	"statdb/internal/dataset"
	"statdb/internal/exec"
	"statdb/internal/relalg"
	"statdb/internal/summary"
	"statdb/internal/tape"
)

// Config sizes the machine.
type Config struct {
	// Processors is the processor-array width (the paper's machine would
	// put one per disk head or track).
	Processors int
	// RowProcessCost is the virtual ticks one processor spends
	// evaluating one row (predicate or aggregate step).
	RowProcessCost int64
	// RowShipCost is the virtual ticks to ship one qualifying row to the
	// host.
	RowShipCost int64
}

func (c Config) validate() error {
	if c.Processors < 1 {
		return fmt.Errorf("dbmachine: need >= 1 processor, have %d", c.Processors)
	}
	return nil
}

// Stats reports one operation's cost split.
type Stats struct {
	RowsScanned int64
	RowsShipped int64
	// MachineTicks is the parallel processing time: per-row work divided
	// across processors.
	MachineTicks int64
	// HostTicks is what the host itself spent (receiving shipped rows).
	HostTicks int64
}

// Total returns machine + host ticks (transfer costs accrue separately on
// the storage device's own clock).
func (s Stats) Total() int64 { return s.MachineTicks + s.HostTicks }

// Machine is a configured processor array.
type Machine struct {
	cfg  Config
	pool *exec.Pool
}

// New creates a machine.
func New(cfg Config) (*Machine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Machine{cfg: cfg, pool: exec.New(cfg.Processors)}, nil
}

// Processors returns the array width.
func (m *Machine) Processors() int { return m.cfg.Processors }

// FilterScan streams the named archive file through the machine,
// evaluating pred in the array and shipping only qualifying rows to the
// host (use 1 of Section 4.3). Tape transfer costs accrue on the
// archive's clock; processing is divided across the processors.
func (m *Machine) FilterScan(a *tape.Archive, file string, pred relalg.Predicate) (*dataset.Dataset, Stats, error) {
	sch, err := a.Schema(file)
	if err != nil {
		return nil, Stats{}, err
	}
	eval, err := pred.Compile(sch)
	if err != nil {
		return nil, Stats{}, err
	}
	out := dataset.New(sch)
	var st Stats
	var appendErr error
	err = a.Read(file, func(row dataset.Row) bool {
		st.RowsScanned++
		if eval(row) {
			st.RowsShipped++
			if appendErr = out.Append(row); appendErr != nil {
				return false
			}
		}
		return true
	})
	if err == nil {
		err = appendErr
	}
	if err != nil {
		return nil, Stats{}, err
	}
	st.MachineTicks = ceilDiv(st.RowsScanned*m.cfg.RowProcessCost, int64(m.cfg.Processors))
	st.HostTicks = st.RowsShipped * m.cfg.RowShipCost
	return out, st, nil
}

// HostFilterCost returns what the same scan costs without a machine: the
// host receives every row and evaluates the predicate itself, serially.
func (m *Machine) HostFilterCost(rowsScanned int64) Stats {
	return Stats{
		RowsScanned:  rowsScanned,
		RowsShipped:  rowsScanned,
		MachineTicks: 0,
		HostTicks:    rowsScanned*m.cfg.RowShipCost + rowsScanned*m.cfg.RowProcessCost,
	}
}

// AggregateKind selects a parallel aggregate.
type AggregateKind uint8

const (
	AggSum AggregateKind = iota
	AggMin
	AggMax
	AggCount
)

// kindFn names each kind's row in the Summary Database's aggregate
// table, which owns the finalizer.
var kindFn = [...]string{AggSum: "sum", AggMin: "min", AggMax: "max", AggCount: "count"}

// Aggregate computes the aggregate over the valid values of xs on real
// goroutines — one per simulated processor — and returns the value with
// the parallel cost (use 3 of Section 4.3: recomputing summary functions
// near the data). Each processor folds its partition into the engine's
// mergeable moment state; the host merges in fixed processor order and
// finalizes through the same table as every other execution strategy.
func (m *Machine) Aggregate(kind AggregateKind, xs []float64, valid []bool) (float64, Stats, error) {
	if int(kind) >= len(kindFn) {
		return 0, Stats{}, fmt.Errorf("dbmachine: unknown aggregate %d", kind)
	}
	p := m.cfg.Processors
	n := len(xs)
	parts := make([]exec.Moments, p)
	ranges := make([]exec.Range, p)
	for w := 0; w < p; w++ {
		ranges[w] = exec.Range{Lo: n * w / p, Hi: n * (w + 1) / p}
	}
	if err := m.pool.RunRanges(ranges, func(c int, r exec.Range) error {
		if valid == nil {
			parts[c] = exec.FoldMoments(xs[r.Lo:r.Hi], nil)
		} else {
			parts[c] = exec.FoldMoments(xs[r.Lo:r.Hi], valid[r.Lo:r.Hi])
		}
		return nil
	}); err != nil {
		return 0, Stats{}, err
	}
	var merged exec.Moments
	for _, pt := range parts {
		merged = exec.MergeMoments(merged, pt)
	}
	st := Stats{
		RowsScanned:  int64(n),
		MachineTicks: ceilDiv(int64(n)*m.cfg.RowProcessCost, int64(p)),
		HostTicks:    int64(p), // merging one partial per processor
	}
	v, err := summary.Finalize(kindFn[kind], summary.State{Moments: merged})
	return v, st, err
}

// AssociativeSearch models the pseudo-associative disk of use 2: finding
// all entries matching a key among n cells costs ceil(n/P) probe steps
// instead of the host's n.
func (m *Machine) AssociativeSearch(nEntries int64) (machineProbes, hostProbes int64) {
	return ceilDiv(nEntries, int64(m.cfg.Processors)), nEntries
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}
