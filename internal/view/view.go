// Package view implements concrete (materialized) views — the private
// per-analyst data sets at the center of the paper's architecture
// (Figure 3). A view owns its working data, its Summary Database, and an
// update history; updates propagate through the Management Database's
// rules into cached summaries and derived attributes, and can be undone.
package view

import (
	"fmt"
	"math"
	"strconv"
	"sync"

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

// View is one analyst's concrete view. It is safe for concurrent use:
// readers (Compute, Result, Column, RowAt, Describe) share the view while
// updates (UpdateWhere, Undo, AddDerived) exclude everyone — the "group
// of users" sharing of Section 3.2. Lock order is view before Summary
// Database; Dataset() escapes the lock and must not be mutated.
type View struct {
	mu      sync.RWMutex
	scanMu  sync.Mutex // guards columnScans and rowReads (leaf lock)
	name    string
	analyst string
	data    *dataset.Dataset
	mdb     *rules.ManagementDB
	sdb     *summary.DB
	history *rules.History
	// Access-pattern tracking for dynamic reorganization (Section 2.7).
	columnScans map[string]int64 // guarded by scanMu
	rowReads    int64            // guarded by scanMu
	// System-wide observability (nil handles no-op): tracer receives
	// view.compute spans and scan charges; cColScans mirrors the column
	// scan tally into the shared registry.
	tracer    *obs.Tracer
	cColScans *obs.Counter
	// store, when attached, services column/row reads through a
	// cost-accounted storage structure (Sections 2.6-2.7). A transposed
	// store receives updates write-through; a row file is written once
	// and detached by the first update.
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
	// Parallelism sizes the execution pool for materialization steps and
	// Summary Database recomputations. 0 or 1 runs every fold inline, on
	// the same chunk grid and to the same answer; core.DBMS defaults it
	// to GOMAXPROCS.
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
		columnScans:  make(map[string]int64),
		runThreshold: defaultRunThreshold,
	}
	v.tracer = opts.Tracer
	v.cColScans = opts.Metrics.Counter(obs.MViewColumnScans)
	v.sdb.SetTracer(opts.Tracer)
	if opts.Parallelism > 1 {
		v.sdb.SetExec(exec.New(opts.Parallelism).WithMetrics(opts.Metrics))
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

// columnSource binds attr as a summary.Source: each call is one read of
// the column by column. It is called with v.mu held — the read side for
// cache fills, the write side for update-driven refolds and rebuilds — so
// it reads whatever store the view has then.
func (v *View) columnSource(attr string) summary.Source {
	return func() ([]float64, []bool, error) { return v.column(attr) }
}

// runSource is the planner heuristic for run-aware compressed
// execution. It binds attr as a summary.RunSource, one read by
// runColumn, when a whole-column fold can run over RLE runs instead of
// decoded rows: the view must be backed by a transposed store and the
// column's runs/rows ratio must clear runThreshold (a Plain column
// reports a run a row, so it never does). Otherwise it returns nil and
// the Summary Database stays on the row path — so the strategy decision
// is made here, where the storage metadata lives, not in the cache layer.
// The source is bound for one call: the store may be gone by the next.
func (v *View) runSource(attr string) summary.RunSource {
	if v.store == nil || v.store.backing != BackingTransposed {
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
	return func() (exec.RunColumn, error) { return v.runColumn(attr) }
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
	var rep shard.Report
	into := &rep
	if v.shards == nil || v.shardsBehind {
		into = nil
	}
	val, err := v.compute(fn, attr, into)
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
	var gathered *shard.Report // allocated by a miss, so a hit allocates no report
	val, err := v.sdb.ScalarFrom(fn, attr, func() summary.Sources {
		src := summary.Sources{Rows: v.columnSource(attr), Runs: v.runSource(attr)}
		if rep != nil {
			gathered = new(shard.Report)
			src.Gather = v.gatherSource(attr, gathered)
		}
		return src
	})
	if gathered != nil {
		*rep = *gathered
	}
	return val, err
}

// Describe returns the standing descriptive summary of Section 3.2 —
// mode, mean, median, quartiles, min & max, unique-value count, and
// counts — computing each through the Summary Database so the values are
// individually cached and individually maintained under updates. On a
// cold attribute the first of them reads the column once; the others
// finalize from the states that read kept.
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
	s.Missing = v.data.Rows() - s.N
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

// Result is Compute for a result of any kind over a tuple of attributes
// — a histogram, a correlation, a regression: fn(attrs) through the
// Summary Database, which on a miss or a stale refill reads each column
// of the tuple once and computes the result by final. The view's read
// lock is held throughout, as Compute holds it, so no update falls
// between the reads and the install; an update of any attribute of the
// tuple marks the entry stale.
func (v *View) Result(fn string, attrs []string, final func(xs [][]float64, valid [][]bool) (summary.Result, error)) (summary.Result, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.sdb.ResultFrom(fn, attrs, v.columnSource, final)
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

// Column reads attr widened to float64 with validity, counting the scan.
func (v *View) Column(attr string) ([]float64, []bool, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.column(attr)
}

// column is the view's one read of a column as rows, for the Summary
// Database and the analysis verbs alike. It counts the scan for layout
// advice and charges the read to the innermost open span (summary wraps
// sources in a "scan" span): a store read as storeRead charges it, a read
// of the record one cell cost a row — so EXPLAIN shows where I/O beat
// RAM. A read that fails returns an error naming the view and the
// attribute; one that ran the query over budget returns the budget's
// error.
func (v *View) column(attr string) ([]float64, []bool, error) {
	v.countScan(attr)
	var xs []float64
	var valid []bool
	var err error
	if v.store == nil {
		xs, valid, err = v.data.NumericByName(attr)
		v.tracer.Charge(exec.DefaultCost().SerialTicks(len(xs)))
		err = v.readErr(attr, err)
	} else {
		err = v.readErr(attr, v.storeRead(func() (err error) {
			xs, valid, err = v.store.readColumn(v.data, attr)
			return err
		}))
	}
	if err != nil {
		return nil, nil, err
	}
	return xs, valid, nil
}

// runColumn is the view's one read of a column as RLE runs, off the
// attached transposed store, counted as column counts a scan.
func (v *View) runColumn(attr string) (exec.RunColumn, error) {
	v.countScan(attr)
	var rc exec.RunColumn
	err := v.readErr(attr, v.storeRead(func() (err error) {
		rc.Vals, rc.Nulls, rc.Counts, err = v.store.col.NumericRunColumn(attr)
		return err
	}))
	if err != nil {
		return exec.RunColumn{}, err
	}
	rc.Rows = v.data.Rows()
	return rc, nil
}

// storeRead runs read against the attached store and charges it to the
// innermost open span: the device's tick delta, and its page reads
// metered against the query budget. It returns read's own error, which
// the caller labels with readErr.
func (v *View) storeRead(read func() error) error {
	before := v.store.dev.Stats()
	err := read()
	after := v.store.dev.Stats()
	v.tracer.Charge(after.Ticks - before.Ticks)
	v.tracer.ChargePages(after.Reads - before.Reads)
	return err
}

// readErr is a read's outcome as its error: the read's own, naming the
// view and what it read, or a budget the read breached.
func (v *View) readErr(what string, err error) error {
	if err != nil {
		return fmt.Errorf("view %s: read %s: %w", v.name, what, err)
	}
	return v.tracer.BudgetErr()
}

func (v *View) countScan(attr string) {
	v.scanMu.Lock()
	v.columnScans[attr]++
	v.scanMu.Unlock()
	v.cColScans.Inc()
}

// RowAt reads one full record, counting the informational access:
// through the attached store, charged as column charges a store read, or
// from the record when none is attached. A store read that fails returns
// its error, and one that ran the query over budget returns the row it
// read with the budget's error; the record does not stand in for the
// store.
func (v *View) RowAt(i int) (dataset.Row, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	v.scanMu.Lock()
	v.rowReads++
	v.scanMu.Unlock()
	if v.store == nil {
		return v.data.RowAt(i), nil
	}
	var row dataset.Row
	err := v.storeRead(func() (err error) {
		row, err = v.store.readRow(i)
		return err
	})
	if err != nil {
		// The label is built only for a failed read.
		return nil, v.readErr("row "+strconv.Itoa(i), err)
	}
	return row, v.tracer.BudgetErr()
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
		if ok && v.data.Cell(r, ci) == value {
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
	v.propagate(attr, rows, deltas)
	return len(rows), nil
}

// writeRows stores at(k) in column ci (attr) of record rows[k], rows
// ascending, in the data set and through an attached transposed store.
// A row file is written once: the first update detaches it, as a schema
// change does, and reads go to the record until Reorganize or
// AttachStore rebuilds it. Rewriting records in place would need a
// relocator for every record that grows out of its page.
func (v *View) writeRows(ci int, attr string, rows []int32, at func(k int) dataset.Value) error {
	if v.store != nil && v.store.backing == BackingRow {
		v.store = nil
	}
	for k, r := range rows {
		if err := v.data.SetCell(int(r), ci, at(k)); err != nil {
			return err
		}
	}
	if v.store == nil {
		return nil
	}
	if err := v.store.col.UpdateRows(attr, rows, at); err != nil {
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
				if old == nv {
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

// writeBehind mirrors derived cells the data set already holds into an
// attached transposed store, vals[k] for record rows[k]. It follows a
// writeRows, which has detached any row file. A store the write fails on
// has fallen behind the record, so it is detached, as a schema change
// detaches it: the record answers until AttachStore rebuilds the store.
func (v *View) writeBehind(attr string, rows []int32, vals []dataset.Value) {
	if v.store == nil || len(rows) == 0 {
		return
	}
	if err := v.store.col.UpdateRows(attr, rows, func(k int) dataset.Value { return vals[k] }); err != nil {
		v.store = nil
	}
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
	// Restore the before-image and push the inverse deltas — last changed
	// record first, the order a cell-at-a-time undo gave them: the kept
	// moments' floating-point sums depend on it.
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
