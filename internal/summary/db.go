package summary

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"statdb/internal/exec"
	"statdb/internal/incr"
	"statdb/internal/index"
	"statdb/internal/medwin"
	"statdb/internal/obs"
	"statdb/internal/rules"
)

// Source re-reads one column of the view for (re)computation — the only
// path by which the Summary Database touches the data, so counting calls
// to it counts full column passes.
type Source func() (xs []float64, valid []bool)

// GatherSource returns one column's merged State from partials held
// outside the view (the sharded copy): freq selects the frequency-table
// family, otherwise moments. complete is false when the gather
// substituted or lost partials; such an answer is handed to the caller
// but never enters the cache — the rule a budget breach already follows
// — so the next access gathers again and a healed shard needs no
// invalidation protocol.
type GatherSource func(freq bool) (st State, complete bool, err error)

// Sources are the input forms a caller offers for one column. A miss or
// refill takes the first that is on offer: Gather, then Runs, then Rows.
type Sources struct {
	Rows   Source       // required; the only form that feeds maintenance state
	Runs   RunSource    // the column as RLE runs (runs.go)
	Gather GatherSource // per-shard partials, already merged
}

// Policy selects how the whole cache reacts to updates (experiment E7).
type Policy uint8

const (
	// PolicyStrategies applies each function's Management Database
	// strategy: incremental, window, or invalidate (the paper's design).
	PolicyStrategies Policy = iota
	// PolicyInvalidateAll marks every affected entry stale on any update
	// and regenerates lazily — the Section 4.3 fallback.
	PolicyInvalidateAll
	// PolicyRecomputeAll recomputes every affected entry immediately on
	// every update — the always-precise worst case.
	PolicyRecomputeAll
)

func (p Policy) String() string {
	switch p {
	case PolicyInvalidateAll:
		return "invalidate-all"
	case PolicyRecomputeAll:
		return "recompute-all"
	default:
		return "per-function"
	}
}

// Counters is a point-in-time copy of the cache's summary.* counts, read
// from the registry handles that count them (Metrics).
type Counters struct {
	Hits        int64 // lookups answered from a fresh entry
	Misses      int64 // lookups that computed from the data
	StaleRefill int64 // lookups that found a stale entry and recomputed
	Incremental int64 // deltas folded into maintainers
	Slides      int64 // deltas absorbed by quantile windows
	Rebuilds    int64 // maintainer/window rebuilds (full column passes)
	Recomputes  int64 // strategy- or policy-forced recomputations
	Passes      int64 // total full column passes through Sources
}

// entry is one cached (function, attributes) result.
type entry struct {
	fn     string
	attrs  []string
	result Result
	fresh  bool
	// Maintenance state, populated according to the function's strategy.
	maint incr.Maintainer // StrategyIncremental
	win   *medwin.Window  // StrategyWindow
	// source re-reads the column for rebuilds (built-in functions).
	source Source
	// runs, when set, re-reads the column as a run column; refreshes
	// prefer it over source (runs.go). Run-served entries carry no
	// maintainer or window — updates invalidate, the next access refills.
	runs RunSource
}

func (e *entry) key() []byte {
	parts := append(append([]string{}, e.attrs...), e.fn)
	return index.Key(parts...)
}

func entryKey(fn string, attrs []string) []byte {
	parts := append(append([]string{}, attrs...), fn)
	return index.Key(parts...)
}

// DB is one view's Summary Database. Safe for concurrent use: a view may
// be shared by "a group of users" (Section 3.2), and a published view's
// cache serves several analysts at once. Sources are invoked while the
// lock is held, so a Source must never call back into the same DB.
type DB struct {
	mu      sync.Mutex
	mdb     *rules.ManagementDB
	policy  Policy       // guarded by mu
	idx     *index.BTree // guarded by mu; (attr..., fn) -> slot
	entries []*entry     // guarded by mu
	// tables is the freq family's maintained state: per attribute, the
	// sorted frequency table every tabled row (mode, unique) finalizes
	// from. The refill of an entry an update left stale retains the table
	// its fold produced — a first miss retains nothing, so only attributes
	// updated and then re-asked pay the 16 B × distinct — OnUpdate merges
	// each batch into it, and Invalidate, SetPolicy or a delete it cannot
	// account for drops it.
	tables map[string]*exec.FreqTable // guarded by mu
	// Every count lives once, in the DB's own registry (the pattern of
	// storage.BufferPool): met caches its handles, Counters reads them and
	// core.DBMS.Metrics merges the registry into the system snapshot. What
	// one statement did is stated on its span tree instead, through tracer
	// (nil until SetTracer: no spans).
	reg    *obs.Registry
	met    dbMetrics
	tracer *obs.Tracer
	// Execution engine for whole-column recomputations (SetExec); nil
	// means serial.
	pool  *exec.Pool
	chunk int
	// WindowCapacity sizes quantile windows ("some number, say 100").
	WindowCapacity int
}

// NewDB creates an empty Summary Database driven by mdb's strategies.
func NewDB(mdb *rules.ManagementDB) *DB {
	reg := obs.NewRegistry()
	return &DB{mdb: mdb, idx: index.New(), tables: map[string]*exec.FreqTable{}, WindowCapacity: 100, reg: reg, met: newDBMetrics(reg)}
}

// SetPolicy switches the cache-wide update policy. Retained tables are
// per-function state only PolicyStrategies maintains: none outlives it.
func (db *DB) SetPolicy(p Policy) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.policy = p
	clear(db.tables)
}

// dbMetrics caches the registry handles: the Counters families plus the
// engine routing and pass-cost instruments.
type dbMetrics struct {
	hits, misses, staleRefill          *obs.Counter
	incremental, slides, rebuilds      *obs.Counter
	recomputes, passes                 *obs.Counter
	recomputeSerial, recomputeParallel *obs.Counter
	passTicks                          *obs.Histogram
	medSlides, medRebuilds             *obs.Counter
	// Run-aware strategy accounting (exec.* family; see runs.go).
	runsFolded, rowsDecoded, runStrategyHits *obs.Counter
}

func newDBMetrics(reg *obs.Registry) dbMetrics {
	return dbMetrics{
		hits:              reg.Counter(obs.MSummaryHits),
		misses:            reg.Counter(obs.MSummaryMisses),
		staleRefill:       reg.Counter(obs.MSummaryStaleRefill),
		incremental:       reg.Counter(obs.MSummaryIncremental),
		slides:            reg.Counter(obs.MSummarySlides),
		rebuilds:          reg.Counter(obs.MSummaryRebuilds),
		recomputes:        reg.Counter(obs.MSummaryRecomputes),
		passes:            reg.Counter(obs.MSummaryPasses),
		recomputeSerial:   reg.Counter(obs.MSummaryRecomputeSerial),
		recomputeParallel: reg.Counter(obs.MSummaryRecomputeParallel),
		passTicks:         reg.Histogram(obs.MSummaryPassTicks, obs.PassTicksBounds()),
		medSlides:         reg.Counter(obs.MMedwinSlides),
		medRebuilds:       reg.Counter(obs.MMedwinRebuilds),
		runsFolded:        reg.Counter(obs.MExecRunsFolded),
		rowsDecoded:       reg.Counter(obs.MExecRowsDecoded),
		runStrategyHits:   reg.Counter(obs.MExecRunStrategyHits),
	}
}

// SetTracer attaches the tracer receiving scan/fold spans; nil disables.
func (db *DB) SetTracer(tr *obs.Tracer) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.tracer = tr
}

// Metrics exposes the DB's registry: the summary.* and medwin.* families
// and the run-strategy exec.* counters. Callers aggregating several
// caches merge the snapshots.
func (db *DB) Metrics() *obs.Registry { return db.reg }

// Counters returns the current summary.* counts.
func (db *DB) Counters() Counters {
	return Counters{
		Hits:        db.met.hits.Value(),
		Misses:      db.met.misses.Value(),
		StaleRefill: db.met.staleRefill.Value(),
		Incremental: db.met.incremental.Value(),
		Slides:      db.met.slides.Value(),
		Rebuilds:    db.met.rebuilds.Value(),
		Recomputes:  db.met.recomputes.Value(),
		Passes:      db.met.passes.Value(),
	}
}

// Len returns the number of cached entries.
func (db *DB) Len() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.entries)
}

// Scalar returns fn(attr), serving from the cache when fresh and
// computing (and installing maintenance state) on a miss. This is the
// search-then-insert protocol of Section 3.2: "if the desired pair is
// found, the corresponding result will be returned; otherwise, after the
// function has been applied ... the new information will be inserted".
func (db *DB) Scalar(fn, attr string, source Source) (float64, error) {
	return db.ScalarFrom(fn, attr, Sources{Rows: source})
}

// ScalarFrom is Scalar with every input form the caller can offer. A
// non-nil Runs or Gather is a decision, not a hint: the view layer has
// already judged the column run-eligible, or its sharded copy current.
// Entries served from runs or a gather install no incremental maintainer
// or window (no rows were read): updates invalidate them, and the next
// access refills. A run read that fails falls back to the row source.
func (db *DB) ScalarFrom(fn, attr string, src Sources) (float64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	sp := db.tracer.Begin("summary.scalar", obs.A("fn", fn), obs.A("attr", attr))
	defer sp.End()
	key := entryKey(fn, []string{attr})
	if slot, ok := db.idx.Get(key); ok {
		e := db.entries[slot]
		if e.fresh {
			db.met.hits.Inc()
			sp.SetAttr("outcome", "hit")
			return e.result.Scalar, nil
		}
		// Stale entry: regenerate in place. Entries restored from disk
		// carry no maintenance state and no source (persist.go); adopt the
		// caller's source so recovered entries recompute like misses.
		if e.source == nil {
			e.source = src.Rows
		}
		if e.runs == nil {
			e.runs = src.Runs
		}
		v, err := db.fill(e, src.Gather, true)
		if err != nil {
			return 0, err
		}
		// The counters and the span's outcome are written together, once the
		// refill has answered: one that failed (a budget breach mid-scan) is
		// neither counted nor given an outcome, and the entry stays stale.
		db.met.staleRefill.Inc()
		db.met.recomputes.Inc()
		sp.SetAttr("outcome", "stale-refill")
		return v, nil
	}
	db.met.misses.Inc()
	sp.SetAttr("outcome", "miss")
	e := &entry{fn: fn, attrs: []string{attr}, source: src.Rows, runs: src.Runs}
	v, err := db.fill(e, src.Gather, false)
	if err != nil {
		return 0, err
	}
	if e.fresh {
		db.insert(e)
	}
	return v, nil
}

// fill computes built-in entry e from the first input form on offer —
// the attribute's retained table (no column is read), gather (the
// caller's, never stored: an attachment can fall behind between calls),
// e.runs, e.source — and records the result on e as fresh. retain asks a
// tabled row's fold over the rows to leave its table behind for OnUpdate
// to maintain. Sources cannot return errors, so a budget breached during
// the scan surfaces between scan and fold, before the fold spends more;
// and neither a breach nor an incomplete gather leaves anything in the
// cache. The caller holds db.mu.
func (db *DB) fill(e *entry, gather GatherSource, retain bool) (float64, error) {
	a, err := lookup(e.fn)
	if err != nil {
		return 0, err
	}
	attr := e.attrs[0]
	if t := db.tables[attr]; t != nil && a.tabled() {
		v, err := a.freq(*t)
		if err != nil {
			return 0, err
		}
		return db.install(e, v)
	}
	if gather != nil {
		st, complete, err := db.readGather(gather, a.freq != nil)
		if err != nil {
			return 0, err
		}
		// Finalizing merged partials is free: the shards already paid for
		// the fold, so per-shard totals still sum exactly to the query root.
		v, err := a.finalize(st)
		if err != nil || !complete {
			return v, err
		}
		return db.install(e, v)
	}
	if e.runs != nil {
		if rc, ok := db.readRunSource(e.runs); ok {
			if err := db.tracer.BudgetErr(); err != nil {
				return 0, err
			}
			v, err := db.foldRuns(a, rc)
			if err != nil {
				return 0, err
			}
			return db.install(e, v)
		}
	}
	if e.source == nil {
		// A loaded entry whose source has not been re-adopted yet (a lookup
		// path that cannot supply one). Degrade explicitly instead of
		// dereferencing nil.
		return 0, fmt.Errorf("summary: stale entry %s(%s) has no source to recompute from",
			e.fn, strings.Join(e.attrs, ","))
	}
	xs, valid := db.readSource(e.source)
	if err := db.tracer.BudgetErr(); err != nil {
		return 0, err
	}
	var keep *exec.FreqTable
	if retain && db.maintainsTable(a) {
		keep = new(exec.FreqTable)
	}
	v, err := db.foldRows(a, xs, valid, keep)
	if err != nil {
		return 0, err
	}
	if v, err = db.install(e, v); err == nil {
		db.installMaintenance(a, e, xs, valid)
		if keep != nil {
			db.tables[attr] = keep
		}
	}
	return v, err
}

// maintainsTable reports whether a's entries are kept current from a
// retained table: a tabled row whose strategy, under the per-function
// policy, is incremental.
func (db *DB) maintainsTable(a *aggregate) bool {
	return a.tabled() && db.policy == PolicyStrategies && db.mdb.StrategyFor(a.name) == rules.StrategyIncremental
}

// install records v on e as its fresh result, unless the fold that
// produced it ran the query over budget.
func (db *DB) install(e *entry, v float64) (float64, error) {
	if err := db.tracer.BudgetErr(); err != nil {
		return 0, err
	}
	e.result, e.fresh = ScalarOf(v), true
	return v, nil
}

// readSource runs one full column pass through source under a "scan"
// span, so whatever the reader charges through the tracer (device ticks
// for store-backed views, cell costs for memory columns) lands on the
// scan node of the query's profile. Counts the pass. The caller holds
// db.mu.
func (db *DB) readSource(source Source) ([]float64, []bool) {
	sp := db.tracer.Begin("scan")
	xs, valid := source()
	sp.SetAttr("rows", fmt.Sprintf("%d", len(xs)))
	sp.SetAttr("strategy", "rows")
	sp.End()
	db.met.passes.Inc()
	db.met.rowsDecoded.Add(int64(len(xs)))
	return xs, valid
}

// readGather runs one scatter-gather pass under a "scan" span; the
// per-shard spans the gather stitches in carry the device charges.
// Counts the pass. The caller holds db.mu.
func (db *DB) readGather(gather GatherSource, freq bool) (State, bool, error) {
	sp := db.tracer.Begin("scan")
	st, complete, err := gather(freq)
	sp.SetAttr("strategy", "gather")
	sp.End()
	db.met.passes.Inc()
	return st, complete, err
}

// installMaintenance attaches the maintainer or window dictated by the
// function's strategy, reusing the already-read column.
func (db *DB) installMaintenance(a *aggregate, e *entry, xs []float64, valid []bool) {
	if db.policy != PolicyStrategies {
		return // policy benches manage freshness, not per-function state
	}
	switch db.mdb.StrategyFor(e.fn) {
	case rules.StrategyIncremental:
		if a.maintain != nil {
			e.maint = a.maintain(xs, valid)
		}
	case rules.StrategyWindow:
		if a.windowed {
			if w, err := medwin.NewQuantile(xs, valid, a.quantile, db.WindowCapacity); err == nil {
				w.SetCounters(db.met.medSlides, db.met.medRebuilds)
				e.win = w
			}
		}
	}
}

func (db *DB) insert(e *entry) {
	slot := int64(len(db.entries))
	db.entries = append(db.entries, e)
	db.idx.Put(e.key(), slot)
}

// Lookup returns the cached result for (fn, attrs) without computing.
// Stale entries report !ok.
func (db *DB) Lookup(fn string, attrs ...string) (Result, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	slot, ok := db.idx.Get(entryKey(fn, attrs))
	if !ok {
		return Result{}, false
	}
	e := db.entries[slot]
	if !e.fresh {
		return Result{}, false
	}
	db.met.hits.Inc()
	return e.result, true
}

// StoreCustom inserts or overwrites a custom result computed by the
// caller, marking it fresh. Lookup then StoreCustom is the protocol for
// every result that is not a built-in scalar: the cache never calls back
// into the caller (the view layer's computations take the view lock), so
// after invalidation the entry stays stale until the caller recomputes
// and stores again.
func (db *DB) StoreCustom(fn string, attrs []string, r Result) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.met.misses.Inc()
	if slot, ok := db.idx.Get(entryKey(fn, attrs)); ok {
		e := db.entries[slot]
		e.result = r
		e.fresh = true
		return
	}
	db.insert(&entry{fn: fn, attrs: attrs, result: r, fresh: true})
}

// Invalidate marks every entry touching attr stale — the bulk
// invalidation of Section 4.3 — and drops attr's retained table. It uses
// the attribute-clustered index scan, which experiment "ablation:
// clustering" measures.
func (db *DB) Invalidate(attr string) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.tables, attr)
	n := 0
	db.idx.ScanPrefix(index.Key(attr), func(_ []byte, slot int64) bool {
		e := db.entries[slot]
		if e.fresh {
			e.fresh = false
			n++
		}
		return true
	})
	return n
}

// OnUpdate propagates one column update (a batch of deltas against attr)
// into the cache. Each affected entry reacts per the active policy and
// its function's strategy, exactly the flow of Section 4.1: retrieve all
// values clustered on the attribute, then apply each function's rules.
//
// The pass runs under a "summary.update" span: rebuild scans nest (and
// charge) under it, and what the pass did is published once it is over —
// added to the registry and stated on the span, which is where the
// statement's event record reads its strategy from.
func (db *DB) OnUpdate(attr string, deltas []incr.Delta) {
	db.mu.Lock()
	defer db.mu.Unlock()
	sp := db.tracer.Begin("summary.update", obs.A("attr", attr))
	defer sp.End()
	var t updateTally
	table := db.tables[attr]
	if table != nil && !table.Apply(changes(deltas)) {
		// A delete of a value the table does not hold — the defeated-min/max
		// rule: its entries go stale and the next access refills.
		delete(db.tables, attr)
		table = nil
	}
	db.idx.ScanPrefix(index.Key(attr), func(_ []byte, slot int64) bool {
		db.applyUpdate(db.entries[slot], deltas, table, &t)
		return true
	})
	publish := func(c *obs.Counter, key string, n int64) {
		if n > 0 {
			c.Add(n)
			sp.SetAttr(key, strconv.FormatInt(n, 10))
		}
	}
	publish(db.met.incremental, "incremental", t.incremental)
	publish(db.met.slides, "slides", t.slides)
	publish(db.met.rebuilds, "rebuilds", t.rebuilds)
	publish(db.met.recomputes, "recomputes", t.recomputes)
}

// updateTally is what one OnUpdate pass did across the entries it
// touched: deltas folded into maintainers, deltas slid through windows,
// maintenance state rebuilt from the column, entries recomputed by
// policy.
type updateTally struct{ incremental, slides, rebuilds, recomputes int64 }

// changes restates a delta batch as the signed multiplicity changes the
// frequency table merges.
func changes(deltas []incr.Delta) []exec.Change {
	out := make([]exec.Change, 0, 2*len(deltas))
	for _, d := range deltas {
		if d.Delete {
			out = append(out, exec.Change{Value: d.Old, N: -1})
		}
		if d.Insert {
			out = append(out, exec.Change{Value: d.New, N: 1})
		}
	}
	return out
}

// applyUpdate is one entry's reaction; table is the attribute's retained
// frequency table with the batch already merged in, nil when none lives.
func (db *DB) applyUpdate(e *entry, deltas []incr.Delta, table *exec.FreqTable, t *updateTally) {
	switch db.policy {
	case PolicyInvalidateAll:
		e.fresh = false
		return
	case PolicyRecomputeAll:
		e.fresh = false
		if e.source != nil {
			if _, err := db.fill(e, nil, false); err == nil {
				t.recomputes++
			}
		}
		return
	}

	// PolicyStrategies.
	switch {
	case e.maint != nil:
		ok := true
		for _, d := range deltas {
			if !e.maint.Apply(d) {
				ok = false
				break
			}
		}
		if !ok {
			// Defeated (e.g. min's last copy deleted): rebuild from data.
			xs, valid := db.readSource(e.source)
			t.rebuilds++
			e.maint.Rebuild(xs, valid)
		} else {
			t.incremental += int64(len(deltas))
		}
		if v, err := e.maint.Value(); err == nil {
			e.result, e.fresh = ScalarOf(v), true
		} else {
			e.fresh = false
		}
	case e.win != nil:
		for _, d := range deltas {
			if d.Delete {
				if err := e.win.Delete(d.Old); err != nil {
					e.fresh = false
					return
				}
			}
			if d.Insert {
				e.win.Insert(d.New)
			}
			t.slides++
		}
		if e.win.NeedsRebuild() {
			// The pointer ran off: regenerate with one pass (Section 4.2).
			xs, valid := db.readSource(e.source)
			t.rebuilds++
			e.win.Rebuild(xs, valid)
		}
		if v, err := e.win.Value(); err == nil {
			e.result, e.fresh = ScalarOf(v), true
		} else {
			e.fresh = false
		}
	default:
		// A tabled row re-finalizes from the merged table. Everything else
		// goes stale: StrategyInvalidate, custom entries, a tabled row whose
		// table is gone.
		e.fresh = false
		if a := aggregateByName[e.fn]; table != nil && a != nil && a.tabled() {
			if v, err := a.freq(*table); err == nil {
				e.result, e.fresh = ScalarOf(v), true
				t.incremental += int64(len(deltas))
			}
		}
	}
}

// Row is one line of the Figure 4 table.
type Row struct {
	Function  string
	Attribute string
	Result    string
	Fresh     bool
}

// Dump renders the cache as the Figure 4 three-column table, clustered by
// attribute (the physical order of Section 4.1) and alphabetical by
// function within an attribute.
func (db *DB) Dump() []Row {
	db.mu.Lock()
	defer db.mu.Unlock()
	var rows []Row
	db.idx.Scan(nil, nil, func(_ []byte, slot int64) bool {
		e := db.entries[slot]
		rows = append(rows, Row{
			Function:  e.fn,
			Attribute: strings.Join(e.attrs, ","),
			Result:    e.result.String(),
			Fresh:     e.fresh,
		})
		return true
	})
	return rows
}
