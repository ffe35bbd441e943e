// Package view implements concrete (materialized) views — the private
// per-analyst data sets at the center of the paper's architecture
// (Figure 3). A view owns its working data, its Summary Database, and an
// update history; updates propagate through the Management Database's
// rules into cached summaries and derived attributes, and can be undone.
package view

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"statdb/internal/colstore"
	"statdb/internal/dataset"
	"statdb/internal/exec"
	"statdb/internal/incr"
	"statdb/internal/obs"
	"statdb/internal/relalg"
	"statdb/internal/rules"
	"statdb/internal/shard"
	"statdb/internal/stats"
	"statdb/internal/summary"
)

// UndoMode selects how updates are made reversible (the undo-granularity
// ablation of DESIGN.md).
type UndoMode uint8

const (
	// UndoPhysical stores per-cell before-images; undo restores them
	// directly. More log space, O(changed cells) undo.
	UndoPhysical UndoMode = iota
	// UndoReplay stores only the logical operation; undo rebuilds the
	// view from its base snapshot and replays all but the last update.
	// Minimal log space, O(view) undo.
	UndoReplay
)

func (m UndoMode) String() string {
	if m == UndoReplay {
		return "replay"
	}
	return "physical"
}

// replayOp is a logical update that can be re-executed.
type replayOp struct {
	attr  string
	pred  relalg.Predicate
	value dataset.Value
}

// View is one analyst's concrete view. It is safe for concurrent use:
// readers (Compute, Column, RowAt, Describe, Cached) share the view while
// updates (UpdateWhere, Undo, AddDerived) exclude everyone — the "group
// of users" sharing of Section 3.2. Lock order is view before Summary
// Database; Dataset() escapes the lock and must not be mutated.
type View struct {
	mu       sync.RWMutex
	scanMu   sync.Mutex // guards columnScans and rowReads (leaf lock)
	name     string
	analyst  string
	data     *dataset.Dataset
	mdb      *rules.ManagementDB
	sdb      *summary.DB
	history  *rules.History
	undoMode UndoMode         // guarded by mu
	base     *dataset.Dataset // guarded by mu; snapshot for UndoReplay
	replay   []replayOp       // guarded by mu; parallel to history records
	// Access-pattern tracking for dynamic reorganization (Section 2.7).
	columnScans map[string]int64 // guarded by scanMu
	rowReads    int64            // guarded by scanMu
	// System-wide observability (nil handles no-op): tracer receives
	// view.compute spans and scan charges; the counters mirror the
	// access-pattern tallies into the shared registry.
	tracer    *obs.Tracer
	cColScans *obs.Counter
	cRowReads *obs.Counter
	// store, when attached, services column/row reads through a
	// cost-accounted storage structure and receives write-through
	// updates (Sections 2.6-2.7).
	store *store // guarded by mu
	// shards, when attached, is the scatter-gather partitioned copy (see
	// sharded.go). It receives no updates: shardsBehind is set by the
	// first one and withdraws the copy from every read path.
	shards       *shard.Store // guarded by mu
	shardsBehind bool         // guarded by mu
	// runThreshold is the planner's runs/rows ceiling for the run-native
	// fold strategy: defaultRunThreshold, a field so tests can move it.
	runThreshold float64
}

// Options configure view construction.
type Options struct {
	UndoMode UndoMode
	// Parallelism sizes the execution pool for materialization steps and
	// Summary Database recomputations. 0 or 1 keeps everything serial
	// (the pre-engine behavior); core.DBMS defaults it to GOMAXPROCS.
	Parallelism int
	// Metrics, when set, receives the view's access-pattern counters and
	// its execution pool's scheduling counters (core.DBMS passes its own
	// registry). The Summary Database counts into a registry of its own:
	// Summary().Metrics().
	Metrics *obs.Registry
	// Tracer, when set, collects per-query span trees across the view
	// and summary layers.
	Tracer *obs.Tracer
}

// defaultRunThreshold is the planner's runs/rows ratio ceiling for
// routing a whole-column fold to the run-native kernels instead of
// decoding rows (only RLE columns of a transposed store are ever
// eligible). At 0.5 a column must compress at least 2:1 before the run
// kernels are worth the strategy switch; SuggestEncodings only picks RLE
// at 4:1 or better, so freshly attached RLE columns always qualify.
const defaultRunThreshold = 0.5

// New wraps data as a concrete view registered in mdb under def. The
// data set is owned by the view from here on.
func New(data *dataset.Dataset, mdb *rules.ManagementDB, def rules.ViewDef, opts Options) (*View, error) {
	if data.Rows() > math.MaxInt32 {
		// Selection vectors and history records index records as int32.
		return nil, fmt.Errorf("view %s: %d records, more than the %d a view holds", def.Name, data.Rows(), math.MaxInt32)
	}
	if err := mdb.RegisterView(def); err != nil {
		return nil, err
	}
	h, err := mdb.HistoryOf(def.Name)
	if err != nil {
		return nil, err
	}
	v := &View{
		name:         def.Name,
		analyst:      def.Analyst,
		data:         data,
		mdb:          mdb,
		sdb:          summary.NewDB(mdb),
		history:      h,
		undoMode:     opts.UndoMode,
		columnScans:  make(map[string]int64),
		runThreshold: defaultRunThreshold,
	}
	v.tracer = opts.Tracer
	v.cColScans = opts.Metrics.Counter(obs.MViewColumnScans)
	v.cRowReads = opts.Metrics.Counter(obs.MViewRowReads)
	v.sdb.SetTracer(opts.Tracer)
	if opts.Parallelism > 1 {
		v.sdb.SetExec(exec.New(opts.Parallelism).WithMetrics(opts.Metrics), 0)
	}
	if v.undoMode == UndoReplay {
		v.base = data.Clone()
	}
	v.data.SetName(def.Name)
	return v, nil
}

// Name returns the view name.
func (v *View) Name() string { return v.name }

// Dataset exposes the working data (callers must not mutate it directly;
// use the update operations so summaries and history stay consistent).
func (v *View) Dataset() *dataset.Dataset { return v.data }

// Summary exposes the view's Summary Database.
func (v *View) Summary() *summary.DB { return v.sdb }

// History exposes the view's update history.
func (v *View) History() *rules.History { return v.history }

// Rows returns the view's record count.
func (v *View) Rows() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.data.Rows()
}

// columnSource binds attr as a summary.Source, counting the pass as a
// column scan for layout advice and charging the read's cost-model ticks
// to the innermost open span (summary wraps sources in a "scan" span):
// store-backed reads charge the device's actual tick delta, memory reads
// charge one cell cost per row — so EXPLAIN shows where I/O beat RAM.
func (v *View) columnSource(attr string) summary.Source {
	return func() ([]float64, []bool) {
		// Called with v.mu held (read side for cache fills, write side
		// for update-driven rebuilds); only the counter needs its lock.
		v.countScan(attr)
		if v.store != nil {
			before := v.store.dev.Stats()
			xs, valid, err := v.store.readColumn(v.data, attr)
			after := v.store.dev.Stats()
			v.tracer.Charge(after.Ticks - before.Ticks)
			// Page reads are metered against the query budget only; spans
			// account ticks.
			v.tracer.ChargePages(after.Reads - before.Reads)
			if err != nil {
				return nil, nil
			}
			return xs, valid
		}
		xs, valid, err := v.data.NumericByName(attr)
		if err != nil {
			return nil, nil
		}
		v.tracer.Charge(exec.DefaultCost().SerialTicks(len(xs)))
		return xs, valid
	}
}

// runSource is the planner heuristic for run-aware compressed
// execution. It binds attr as a summary.RunSource when a whole-column
// fold can run over RLE runs instead of decoded rows: the view must be
// backed by a transposed store, the column must be RLE-encoded, and its
// runs/rows ratio must clear runThreshold. Any miss returns nil and the
// Summary Database stays on the row path — so the strategy decision is
// made here, where the storage metadata lives, not in the cache layer.
func (v *View) runSource(attr string) summary.RunSource {
	if v.store == nil || v.store.backing != BackingTransposed {
		return nil
	}
	enc, err := v.store.col.ColumnEncoding(attr)
	if err != nil || enc != colstore.RLE {
		return nil
	}
	runs, err := v.store.col.ColumnRuns(attr)
	if err != nil {
		return nil
	}
	rows := v.data.Rows()
	if rows == 0 || float64(runs) > v.runThreshold*float64(rows) {
		return nil
	}
	st := v.store
	return func() (exec.RunColumn, bool) {
		// Called with v.mu held, like columnSource.
		v.countScan(attr)
		before := st.dev.Stats()
		vals, nulls, counts, err := st.col.NumericRunColumn(attr)
		after := st.dev.Stats()
		v.tracer.Charge(after.Ticks - before.Ticks)
		v.tracer.ChargePages(after.Reads - before.Reads)
		if err != nil {
			return exec.RunColumn{}, false
		}
		return exec.RunColumn{Vals: vals, Nulls: nulls, Counts: counts, Rows: rows}, true
	}
}

// Compute evaluates a built-in scalar function over attr through the
// Summary Database cache. Non-summarizable attributes are rejected using
// the schema meta-data, as Section 3.2 requires (the median of AGE_GROUP
// does not make sense).
func (v *View) Compute(fn, attr string) (float64, error) {
	val, _, err := v.ComputeReport(fn, attr)
	return val, err
}

// ComputeReport is Compute plus the answer's provenance. The report is
// zero unless this call gathered from a sharded copy; when it says
// Degraded, the value merged stale or partial shards and was not cached.
func (v *View) ComputeReport(fn, attr string) (float64, shard.Report, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	// rep escapes into the gather closure; declaring it only past this
	// branch keeps cache hits on unsharded views free of that allocation.
	if v.shards == nil || v.shardsBehind {
		val, err := v.compute(fn, attr, nil)
		return val, shard.Report{}, err
	}
	var rep shard.Report
	val, err := v.compute(fn, attr, &rep)
	return val, rep, err
}

// compute is the one read path: meta-data guards, then the Summary
// Database with every input form the backings offer. A non-nil rep
// offers the sharded copy too and receives the gather's provenance.
func (v *View) compute(fn, attr string, rep *shard.Report) (float64, error) {
	sp := v.tracer.Begin("view.compute", obs.A("fn", fn), obs.A("attr", attr))
	defer sp.End()
	a, ok := v.data.Schema().Lookup(attr)
	if !ok {
		return 0, fmt.Errorf("view %s: no attribute %q", v.name, attr)
	}
	if !a.Summarizable {
		return 0, fmt.Errorf("view %s: attribute %q is not summarizable (category or coded attribute)", v.name, attr)
	}
	if a.Kind == dataset.KindString {
		return 0, fmt.Errorf("view %s: attribute %q is a string; use StringFrequencies", v.name, attr)
	}
	src := summary.Sources{Rows: v.columnSource(attr), Runs: v.runSource(attr)}
	if rep != nil {
		src.Gather = v.gatherSource(attr, rep)
	}
	return v.sdb.ScalarFrom(fn, attr, src)
}

// Describe returns the standing descriptive summary of Section 3.2 —
// mode, mean, median, quartiles, min & max, unique-value count, and
// counts — computing each through the Summary Database so the values are
// individually cached and individually maintained under updates.
func (v *View) Describe(attr string) (stats.Summary, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var s stats.Summary
	// The ten values must describe one column state, and Missing below is
	// counted from the rows of record: no sharded gather, which may
	// degrade between one value and the next.
	get := func(fn string) (float64, error) { return v.compute(fn, attr, nil) }
	n, err := get("count")
	if err != nil {
		return s, err
	}
	s.N = int(n)
	if s.N == 0 {
		return s, stats.ErrNoData
	}
	xs, _, err := v.data.NumericByName(attr)
	if err != nil {
		return s, err
	}
	s.Missing = len(xs) - s.N
	if s.Mean, err = get("mean"); err != nil {
		return s, err
	}
	if sd, err := get("sd"); err == nil {
		s.SD = sd
	} else {
		s.SD = math.NaN()
	}
	if s.Min, err = get("min"); err != nil {
		return s, err
	}
	if s.Max, err = get("max"); err != nil {
		return s, err
	}
	if s.Median, err = get("median"); err != nil {
		return s, err
	}
	if s.Q1, err = get("q1"); err != nil {
		return s, err
	}
	if s.Q3, err = get("q3"); err != nil {
		return s, err
	}
	if s.Mode, err = get("mode"); err != nil {
		return s, err
	}
	u, err := get("unique")
	if err != nil {
		return s, err
	}
	s.Unique = int(u)
	return s, nil
}

// Cached retrieves or computes a custom cached result (histograms,
// correlations, test statistics) under (fn, attrs). The compute closure
// runs with no view or cache lock held, so it may freely use Column,
// RowAt and Dataset; if the entry was invalidated by an update, the next
// Cached call recomputes and refreshes it. Two racing misses may both
// compute; the cache keeps one result. The "view.cached" span states the
// outcome the way summary.scalar does for built-ins, and carries what
// compute's column reads charge.
func (v *View) Cached(fn string, attrs []string, compute func() (summary.Result, error)) (summary.Result, error) {
	sp := v.tracer.Begin("view.cached", obs.A("fn", fn), obs.A("attrs", strings.Join(attrs, ",")))
	defer sp.End()
	if r, ok := v.sdb.Lookup(fn, attrs...); ok {
		sp.SetAttr("outcome", "hit")
		return r, nil
	}
	r, err := compute()
	if err != nil {
		return summary.Result{}, err
	}
	v.sdb.StoreCustom(fn, attrs, r)
	sp.SetAttr("outcome", "miss")
	return r, nil
}

// StringFrequencies tabulates a string attribute's distinct values and
// counts — the categorical analogue of the numeric summaries, for the
// attributes Compute refuses.
func (v *View) StringFrequencies(attr string) (values []string, counts []int, err error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	a, ok := v.data.Schema().Lookup(attr)
	if !ok {
		return nil, nil, fmt.Errorf("view %s: no attribute %q", v.name, attr)
	}
	if a.Kind != dataset.KindString {
		return nil, nil, fmt.Errorf("view %s: attribute %q is %s; StringFrequencies needs a string attribute", v.name, attr, a.Kind)
	}
	v.countScan(attr)
	i := v.data.Schema().Index(attr)
	ss, valid := v.data.Strings(i)
	fv, fc := stats.StringFrequencies(ss, valid)
	return fv, fc, nil
}

// InconsistentPairs returns the row indices where a known relationship
// between two attributes fails to hold — the pairwise data checking of
// Section 2.2 ("for those cases in which a known relationship exists
// between pairs of values, the data checker must also examine all pairs
// of values"). Rows with a missing value in either attribute are skipped.
//
//lint:allow test-only paper-named: the pairwise data checking of §2.2
func (v *View) InconsistentPairs(attrA, attrB string, holds func(a, b dataset.Value) bool) ([]int, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	ia := v.data.Schema().Index(attrA)
	if ia < 0 {
		return nil, fmt.Errorf("view %s: no attribute %q", v.name, attrA)
	}
	ib := v.data.Schema().Index(attrB)
	if ib < 0 {
		return nil, fmt.Errorf("view %s: no attribute %q", v.name, attrB)
	}
	v.countScan(attrA)
	v.countScan(attrB)
	var out []int
	for r := 0; r < v.data.Rows(); r++ {
		a, b := v.data.Cell(r, ia), v.data.Cell(r, ib)
		if a.IsNull() || b.IsNull() {
			continue
		}
		if !holds(a, b) {
			out = append(out, r)
		}
	}
	return out, nil
}

// Column reads attr widened to float64 with validity, counting the scan.
func (v *View) Column(attr string) ([]float64, []bool, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.column(attr)
}

func (v *View) column(attr string) ([]float64, []bool, error) {
	v.countScan(attr)
	if v.store != nil {
		// Charge the device's measured cost like columnSource does:
		// analysis verbs read through here, and an unmetered store read
		// is invisible to EXPLAIN and the query budget.
		before := v.store.dev.Stats()
		xs, valid, err := v.store.readColumn(v.data, attr)
		after := v.store.dev.Stats()
		v.tracer.Charge(after.Ticks - before.Ticks)
		v.tracer.ChargePages(after.Reads - before.Reads)
		return xs, valid, err
	}
	return v.data.NumericByName(attr)
}

func (v *View) countScan(attr string) {
	v.scanMu.Lock()
	v.columnScans[attr]++
	v.scanMu.Unlock()
	v.cColScans.Inc()
}

// RowAt reads one full record, counting the informational access.
func (v *View) RowAt(i int) dataset.Row {
	v.mu.RLock()
	defer v.mu.RUnlock()
	v.scanMu.Lock()
	v.rowReads++
	v.scanMu.Unlock()
	v.cRowReads.Inc()
	if v.store != nil {
		if row, err := v.store.readRow(i); err == nil {
			return row
		}
	}
	return v.data.RowAt(i)
}

// UpdateWhere sets attr to value on every row satisfying pred. It records
// history, propagates deltas into the Summary Database, and fires the
// Management Database's derived-attribute rules (Section 4.1). It returns
// the number of rows changed.
func (v *View) UpdateWhere(attr string, pred relalg.Predicate, value dataset.Value) (int, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.updateWhere(attr, pred, value)
}

func (v *View) updateWhere(attr string, pred relalg.Predicate, value dataset.Value) (int, error) {
	ci := v.data.Schema().Index(attr)
	if ci < 0 {
		return 0, fmt.Errorf("view %s: no attribute %q", v.name, attr)
	}
	eval, err := pred.Bind(v.data)
	if err != nil {
		return 0, err
	}
	// The selection vector: the predicate over the column vectors it
	// names, then only the matched cells of the target column that would
	// change. It is sized by a count first because it lives on in the
	// history.
	mask := make([]bool, v.data.Rows())
	eval(0, len(mask), mask)
	changed := 0
	for r, ok := range mask {
		if ok && v.data.Cell(r, ci).Equal(value) {
			mask[r] = false
		} else if ok {
			changed++
		}
	}
	rows := make([]int32, 0, changed)
	for r, ok := range mask {
		if ok {
			rows = append(rows, int32(r))
		}
	}
	if len(rows) == 0 {
		return 0, nil
	}
	old := v.data.Gather(ci, rows)
	if err := v.writeRows(ci, attr, rows, func(int) dataset.Value { return value }); err != nil {
		// Put the before-image back so a failure part-way never leaves a
		// torn, unrecorded update.
		_ = v.writeRows(ci, attr, rows, old.At) //lint:allow error-flow revert is best-effort; the batch error wins
		return 0, err
	}
	deltas := make([]incr.Delta, len(rows))
	for k := range rows {
		deltas[k] = deltaFor(old.At(k), value)
	}
	v.shardsBehind = true
	desc := fmt.Sprintf("set %s = %s where %s", attr, value, pred)
	v.history.Append(rules.UpdateRecord{
		Seq: v.mdb.NextSeq(), Analyst: v.analyst, Description: desc,
		Attr: attr, New: value, Rows: rows, Old: old,
	})
	if v.undoMode == UndoReplay {
		v.replay = append(v.replay, replayOp{attr: attr, pred: pred, value: value})
	}
	v.propagate(attr, rows, deltas)
	return len(rows), nil
}

// writeRows stores at(k) in column ci (attr) of record rows[k], rows
// ascending, in the data set and through the attached store.
func (v *View) writeRows(ci int, attr string, rows []int32, at func(k int) dataset.Value) error {
	for k, r := range rows {
		if err := v.data.SetCell(int(r), ci, at(k)); err != nil {
			return err
		}
	}
	if v.store == nil {
		return nil
	}
	if err := v.store.writeRows(v.data, attr, rows, at); err != nil {
		return fmt.Errorf("view %s: store write-through: %w", v.name, err)
	}
	return nil
}

// InvalidateWhere marks attr missing on every matching row — the
// "temporarily mark a particular record (or set of records) as invalid"
// operation of Section 2.2.
func (v *View) InvalidateWhere(attr string, pred relalg.Predicate) (int, error) {
	return v.UpdateWhere(attr, pred, dataset.Null)
}

// Rows is computed under the read lock.

// deltaFor converts a cell change into an incr.Delta, treating nulls as
// absence.
func deltaFor(old, new dataset.Value) incr.Delta {
	d := incr.Delta{}
	if !old.IsNull() && old.Kind() != dataset.KindString {
		d.Delete = true
		d.Old = old.AsFloat()
	}
	if !new.IsNull() && new.Kind() != dataset.KindString {
		d.Insert = true
		d.New = new.AsFloat()
	}
	return d
}

// propagate pushes an applied change set — the changed records of attr
// and their deltas — into the Summary Database and the derived-attribute
// rules.
func (v *View) propagate(attr string, rows []int32, deltas []incr.Delta) {
	v.sdb.OnUpdate(attr, deltas)
	for _, rule := range v.mdb.DerivedRulesFor(v.name, attr) {
		di := v.data.Schema().Index(rule.Attr)
		if di < 0 {
			continue
		}
		switch rule.Scope {
		case rules.ScopeLocal:
			// Recompute only the changed rows' derived cells.
			var (
				derivedRows   []int32
				derived       []dataset.Value
				derivedDeltas []incr.Delta
			)
			for _, r32 := range rows {
				r := int(r32)
				old := v.data.Cell(r, di)
				nv := rule.Row(v.data.Schema(), v.data.RowAt(r))
				if old.Equal(nv) {
					continue
				}
				if err := v.data.SetCell(r, di, nv); err != nil {
					continue
				}
				derivedRows = append(derivedRows, r32)
				derived = append(derived, nv)
				derivedDeltas = append(derivedDeltas, deltaFor(old, nv))
			}
			v.writeBehind(rule.Attr, derivedRows, derived)
			if len(derivedDeltas) > 0 {
				// Cascade into the derived attribute's own summaries and
				// rules.
				v.propagate(rule.Attr, nil, derivedDeltas)
			}
		case rules.ScopeGlobal:
			// Regenerate the entire vector (the residuals example of
			// Section 3.2) and invalidate its summaries wholesale.
			vals, err := rule.Column(v.data)
			if err != nil || len(vals) != v.data.Rows() {
				v.sdb.Invalidate(rule.Attr)
				continue
			}
			all := make([]int32, len(vals))
			for r, nv := range vals {
				all[r] = int32(r)
				_ = v.data.SetCell(r, di, nv) //lint:allow error-flow regenerate length was checked above
			}
			v.writeBehind(rule.Attr, all, vals)
			v.sdb.Invalidate(rule.Attr)
		}
	}
}

// writeBehind mirrors derived cells the data set already holds into the
// attached store, vals[k] for record rows[k].
func (v *View) writeBehind(attr string, rows []int32, vals []dataset.Value) {
	if v.store == nil || len(rows) == 0 {
		return
	}
	_ = v.store.writeRows(v.data, attr, rows, func(k int) dataset.Value { return vals[k] }) //lint:allow error-flow derived write-behind; summaries are invalidated regardless
}

// AddDerived appends a derived attribute computed by rule and registers
// the rule so future updates to its inputs keep it consistent.
func (v *View) AddDerived(attr dataset.Attribute, rule rules.DerivedRule) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	rule.View = v.name
	rule.Attr = attr.Name
	if err := rule.Validate(); err != nil {
		return err
	}
	for _, in := range rule.Inputs {
		if v.data.Schema().Index(in) < 0 {
			return fmt.Errorf("view %s: derived input %q missing", v.name, in)
		}
	}
	vals := make([]dataset.Value, v.data.Rows())
	switch rule.Scope {
	case rules.ScopeLocal:
		for r := 0; r < v.data.Rows(); r++ {
			vals[r] = rule.Row(v.data.Schema(), v.data.RowAt(r))
		}
	case rules.ScopeGlobal:
		var err error
		vals, err = rule.Column(v.data)
		if err != nil {
			return err
		}
		if len(vals) != v.data.Rows() {
			return fmt.Errorf("view %s: global rule for %q produced %d values for %d rows",
				v.name, attr.Name, len(vals), v.data.Rows())
		}
	}
	if err := v.data.AddColumn(attr, vals); err != nil {
		return err
	}
	if err := v.mdb.AddDerivedRule(rule); err != nil {
		return err
	}
	// The stored image no longer matches the widened schema; drop it.
	// The caller re-attaches if it wants storage backing for the new
	// shape. The sharded copy lacks the column too.
	v.store = nil
	v.shardsBehind = true
	if v.undoMode == UndoReplay {
		// Derived columns are regenerable; fold them into the base so
		// replays start from the extended schema.
		v.base = v.data.Clone()
		v.replay = nil
		// History before this point can no longer be replayed; undo of
		// pre-derivation updates requires physical images, which remain
		// in the history records.
	}
	return nil
}

// Undo reverses the most recent update (Section 2.3: the analyst can
// "undo recent changes to the view if he discovers ... that the changes
// made to the view were incorrect").
func (v *View) Undo() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.undo()
}

func (v *View) undo() error {
	rec, err := v.history.PopLast()
	if err != nil {
		return err
	}
	v.shardsBehind = true
	switch v.undoMode {
	case UndoPhysical:
		// Restore the before-image and push the inverse deltas — last
		// changed record first, the order a cell-at-a-time undo gave
		// them: the maintainers' floating-point sums depend on it.
		ci := v.data.Schema().Index(rec.Attr)
		if ci < 0 {
			return fmt.Errorf("view %s: undo references missing attribute %q", v.name, rec.Attr)
		}
		if err := v.writeRows(ci, rec.Attr, rec.Rows, rec.Old.At); err != nil {
			return err
		}
		deltas := make([]incr.Delta, len(rec.Rows))
		for k := range rec.Rows {
			deltas[len(deltas)-1-k] = deltaFor(rec.New, rec.Old.At(k))
		}
		// Reuse the rule-firing path so derived attributes follow.
		v.propagate(rec.Attr, rec.Rows, deltas)
		return nil
	case UndoReplay:
		if v.base == nil {
			return fmt.Errorf("view %s: replay undo without base snapshot", v.name)
		}
		if len(v.replay) == 0 {
			return fmt.Errorf("view %s: replay log empty", v.name)
		}
		ops := v.replay[:len(v.replay)-1]
		v.data = v.base.Clone()
		v.data.SetName(v.name)
		v.replay = nil
		v.store = nil // replay rebuilt the data; stored image is stale
		// Rebuild by replaying; replayed ops re-append to history, so
		// drain the remaining records first.
		for v.history.Len() > 0 {
			if _, err := v.history.PopLast(); err != nil {
				return err
			}
		}
		for _, op := range ops {
			if _, err := v.updateWhere(op.attr, op.pred, op.value); err != nil {
				return err
			}
		}
		// Summaries may be arbitrarily stale after the rebuild: drop
		// freshness wholesale.
		for _, attr := range v.data.Schema().Names() {
			v.sdb.Invalidate(attr)
		}
		return nil
	}
	return fmt.Errorf("view %s: unknown undo mode %d", v.name, v.undoMode)
}

// RollbackTo undoes updates until the most recent history record has
// Seq <= seq — "rolling a view back to a previous state" (Section 3.2).
// seq 0 undoes everything.
func (v *View) RollbackTo(seq int64) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	for {
		last, ok := v.history.Last()
		if !ok || last.Seq <= seq {
			return nil
		}
		if err := v.undo(); err != nil {
			return err
		}
	}
}

// LayoutAdvice summarizes the observed access pattern and the storage
// layout it favors — the "intelligent access methods that interpret
// reference patterns to the view and dynamically reorganize the storage
// structures" of Section 2.7.
type LayoutAdvice struct {
	ColumnScans int64
	RowReads    int64
	// Transpose is true when column-oriented access dominates enough that
	// a transposed layout would cut I/O.
	Transpose bool
	// HotAttrs are the most-scanned attributes, candidates for clustering
	// or per-column migration.
	HotAttrs []string
}

// Advice computes the current layout recommendation.
func (v *View) Advice() LayoutAdvice {
	v.mu.RLock()
	defer v.mu.RUnlock()
	v.scanMu.Lock()
	defer v.scanMu.Unlock()
	var total int64
	var hot []string
	var hotMax int64
	for attr, n := range v.columnScans {
		total += n
		if n > hotMax {
			hotMax, hot = n, []string{attr}
		} else if n == hotMax && hotMax > 0 {
			hot = append(hot, attr)
		}
	}
	adv := LayoutAdvice{ColumnScans: total, RowReads: v.rowReads, HotAttrs: hot}
	// A column scan touches all rows of one attribute; a row read touches
	// all attributes of one row. With W attributes, transposed files cost
	// ~1/W per column scan and ~W seeks per row read; transposition wins
	// when scans dominate reads by more than the width ratio.
	w := float64(v.data.Schema().Len())
	if w > 1 && float64(total) > math.Max(1, float64(v.rowReads)/w) {
		adv.Transpose = true
	}
	return adv
}
