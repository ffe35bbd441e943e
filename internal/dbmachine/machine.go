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
// parallel merge logic is genuinely exercised. They fold on exec's one
// chunk grid, not on a range per processor, so a machine of any width
// answers what the host's own fold answers, bit for bit; only the cost
// model divides the rows by the processor count.
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

// FilterScan streams the named archive file through the machine,
// evaluating pred in the array and shipping only qualifying rows to the
// host (use 1 of Section 4.3). Tape transfer costs accrue on the
// archive's clock; processing is divided across the processors.
//
// The array evaluates one tape block at a time: each block's rows are
// gathered into a data set and pred is bound to it column-wise, the
// same evaluator Select runs. pred is first bound to an empty data set
// of the file's schema, so a bad attribute fails before the tape moves.
func (m *Machine) FilterScan(a *tape.Archive, file string, pred relalg.Predicate) (*dataset.Dataset, Stats, error) {
	sch, err := a.Schema(file)
	if err != nil {
		return nil, Stats{}, err
	}
	if _, err := pred.Bind(dataset.New(sch)); err != nil {
		return nil, Stats{}, err
	}
	out := dataset.New(sch)
	var st Stats
	block := dataset.New(sch)
	mask := make([]bool, tape.BlockRows)
	ship := func() error {
		eval, err := pred.Bind(block)
		if err != nil {
			return err
		}
		n := block.Rows()
		eval(0, n, mask)
		for i, ok := range mask[:n] {
			if ok {
				st.RowsShipped++
				if err := out.Append(block.RowAt(i)); err != nil {
					return err
				}
			}
		}
		block = dataset.New(sch)
		return nil
	}
	var blockErr error
	err = a.Read(file, func(row dataset.Row) bool {
		st.RowsScanned++
		if blockErr = block.Append(row); blockErr == nil && block.Rows() == tape.BlockRows {
			blockErr = ship()
		}
		return blockErr == nil
	})
	if err == nil {
		err = blockErr
	}
	if err == nil {
		err = ship()
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
// near the data). The processors fold the column's chunks on exec's one
// grid into the engine's mergeable moment state, the host merges them in
// grid order and finalizes through the same table as every other
// execution strategy, so the answer is the host's fold bit for bit. The
// cost model still divides the rows across the processors and charges
// the host one merge per processor.
func (m *Machine) Aggregate(kind AggregateKind, xs []float64, valid []bool) (float64, Stats, error) {
	if int(kind) >= len(kindFn) {
		return 0, Stats{}, fmt.Errorf("dbmachine: unknown aggregate %d", kind)
	}
	p, n := m.cfg.Processors, len(xs)
	merged := exec.ColumnMoments(m.pool, xs, valid, exec.DefaultChunk)
	st := Stats{
		RowsScanned:  int64(n),
		MachineTicks: ceilDiv(int64(n)*m.cfg.RowProcessCost, int64(p)),
		HostTicks:    int64(p),
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
