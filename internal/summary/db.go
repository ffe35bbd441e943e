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
	Rows   Source       // required; it refolds kept moments and rebuilds windows
	Runs   RunSource    // the column as RLE runs (runs.go)
	Gather GatherSource // per-shard partials, already merged; keeps no state
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
	Incremental int64 // deltas folded into kept states, once per entry re-finalized
	Slides      int64 // deltas absorbed by quantile windows
	Rebuilds    int64 // kept-state/window rebuilds (full column passes)
	Recomputes  int64 // strategy- or policy-forced recomputations
	Passes      int64 // total full column passes through Sources
}

// entry is one cached (function, attributes) result.
type entry struct {
	fn     string
	attrs  []string
	result Result
	fresh  bool
	// win is a windowed row's maintenance state (StrategyWindow); moments
	// and tabled rows re-finalize from their attribute's kept state.
	win *medwin.Window
	// source re-reads the column for rebuilds (built-in functions).
	source Source
	// runs, when set, re-reads the column as a run column; refreshes
	// prefer it over source (runs.go).
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
	// An attribute's kept states are what one read of its column folded,
	// kept so that every later fill of the attribute finalizes from them
	// and every update merges into them. A read under the per-function
	// policy folds each family the attribute lacks, so a cold attribute
	// costs one column pass however many functions are asked of it.
	// Invalidate, SetPolicy and the cache-wide policies keep none.
	//
	// moments holds the KeptMoments every moments row (count … max)
	// finalizes from. It is 80 B, so every read keeps it; OnUpdate merges
	// each batch into it once, refolding it when the batch leaves it unable
	// to answer a cached row.
	moments map[string]*keptMoments // guarded by mu
	// tables holds the sorted frequency table every freq row (mode, unique
	// and the quantiles) finalizes from — 16 B a distinct value. A table is
	// cold while it only serves fills to come: it lives until every freq
	// row of its attribute is cached, within coldTableBudget, least
	// recently used out first. An update while a tabled row of the
	// attribute is cached, or the refill of a tabled row an update left
	// stale, makes it maintained: the delta form of the attribute's tabled
	// rows, outside the budget, until Invalidate, SetPolicy or a delete it
	// cannot account for drops it. An update drops a cold table no cached
	// row reads.
	tables    map[string]*keptTable // guarded by mu
	coldBytes int64                 // guarded by mu; the cold tables' size
	clock     uint64                // guarded by mu; orders the cold tables' uses
	// Every count lives once, in the DB's own registry (the pattern of
	// storage.BufferPool): met caches its handles, Counters reads them and
	// core.DBMS.Metrics merges the registry into the system snapshot. What
	// one statement did is stated on its span tree instead, through tracer
	// (nil until SetTracer: no spans).
	reg    *obs.Registry
	met    dbMetrics
	tracer *obs.Tracer
	// Execution engine for whole-column recomputations (SetExec); nil
	// runs every fold inline.
	pool *exec.Pool
	// WindowCapacity sizes quantile windows ("some number, say 100").
	WindowCapacity int
}

// NewDB creates an empty Summary Database driven by mdb's strategies.
func NewDB(mdb *rules.ManagementDB) *DB {
	reg := obs.NewRegistry()
	return &DB{mdb: mdb, idx: index.New(), tables: map[string]*keptTable{}, moments: map[string]*keptMoments{},
		WindowCapacity: 100, reg: reg, met: newDBMetrics(reg)}
}

// coldTableBudget bounds the bytes of a view's cold tables: room for the
// table of one high-cardinality column of a few hundred thousand rows
// beside the low-cardinality ones an analyst works through with it. A
// cold table larger than the budget is not kept.
const coldTableBudget = 2 << 20

// keptMoments is one attribute's kept moments state and the source that
// refolds it.
type keptMoments struct {
	exec.KeptMoments
	source Source
}

// keptTable is one attribute's kept frequency table.
type keptTable struct {
	exec.FreqTable
	maintained bool   // outside the budget, kept until dropped
	used       uint64 // the clock at its last use
}

func (t *keptTable) bytes() int64 { return 16 * int64(len(t.Values)) }

// SetPolicy switches the cache-wide update policy. Kept states are
// per-function state only PolicyStrategies keeps: none outlives it.
func (db *DB) SetPolicy(p Policy) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.policy = p
	clear(db.tables)
	clear(db.moments)
	db.coldBytes = 0
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
// A fill served from a gather keeps no state and installs no window:
// updates invalidate its entry unless a read kept the attribute's
// states, and the next access refills. A fill from runs keeps what a row
// read keeps. A run read that fails falls back to the row source.
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
		v, err := db.fill(e, src.Gather, true, sp)
		if err != nil {
			return 0, err
		}
		// The counters and the span's outcome are written together, once the
		// refill has answered: one that failed (a budget breach mid-scan) is
		// neither counted nor given an outcome, and the entry stays stale.
		db.met.staleRefill.Inc()
		db.met.recomputes.Inc()
		sp.SetAttr("outcome", "stale-refill")
		db.settle(attr)
		return v, nil
	}
	db.met.misses.Inc()
	sp.SetAttr("outcome", "miss")
	e := &entry{fn: fn, attrs: []string{attr}, source: src.Rows, runs: src.Runs}
	v, err := db.fill(e, src.Gather, false, sp)
	if err != nil {
		return 0, err
	}
	if e.fresh {
		db.insert(e)
		db.settle(attr)
	}
	return v, nil
}

// fill computes built-in entry e from the first input form on offer —
// the attribute's kept state of e's family (no column is read; sp says
// strategy=kept), gather (the caller's, never stored: an attachment can
// fall behind between calls), e.runs, e.source — and records the result
// on e as fresh. A read of runs or rows folds, besides e's own family,
// each one the attribute lacks, and leaves behind what OnUpdate
// maintains: the kept states and a window. The refill (retain) of a
// tabled row keeps its table as maintained. Sources cannot return
// errors, so a budget breached during the scan surfaces between scan and
// fold, before the fold spends more; and neither a breach nor an
// incomplete gather leaves anything in the cache. The caller holds db.mu.
func (db *DB) fill(e *entry, gather GatherSource, retain bool, sp *obs.Span) (float64, error) {
	a, err := lookup(e.fn)
	if err != nil {
		return 0, err
	}
	attr := e.attrs[0]
	if v, ok, err := db.fromKept(a, attr); ok {
		if err != nil {
			return 0, err
		}
		sp.SetAttr("strategy", "kept")
		if v, err = db.install(e, v); err == nil && a.freq != nil {
			db.installWindow(a, e, db.tables[attr].FreqTable)
		}
		return v, err
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
	f := db.families(a, e)
	if e.runs != nil {
		if rc, ok := db.readRunSource(e.runs); ok {
			if err := db.tracer.BudgetErr(); err != nil {
				return 0, err
			}
			st, err := db.foldRuns(a, rc, f)
			if err != nil {
				return 0, err
			}
			return db.answer(a, e, st, f, retain, func(m exec.Moments) exec.KeptMoments { return exec.KeepRuns(m, rc) })
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
	st := db.foldRows(a, xs, valid, f)
	return db.answer(a, e, st, f, retain, func(m exec.Moments) exec.KeptMoments { return exec.Keep(m, xs, valid) })
}

// fromKept finalizes a from attr's kept state of a's family; ok is false
// when none is kept, or the kept moments lost the extremum a answers.
// The caller holds db.mu.
func (db *DB) fromKept(a *aggregate, attr string) (v float64, ok bool, err error) {
	if a.moments != nil {
		k := db.moments[attr]
		if k == nil {
			return 0, false, nil
		}
		if lostMin, lostMax := k.Lost(); a.name == "min" && lostMin || a.name == "max" && lostMax {
			return 0, false, nil
		}
		v, err = a.moments(k.Moments)
		return v, true, err
	}
	t := db.tables[attr]
	if t == nil {
		return 0, false, nil
	}
	db.touch(t)
	v, err = a.freq(t.FreqTable)
	return v, true, err
}

// families is which state families a read for entry e folds: e's own
// and, under the per-function policy, each the attribute lacks — its
// moments always, a table while some other freq row of it is uncached.
type families struct{ moments, freq bool }

func (db *DB) families(a *aggregate, e *entry) families {
	f := families{moments: a.moments != nil, freq: a.freq != nil}
	if db.policy == PolicyStrategies {
		attr := e.attrs[0]
		f.moments = f.moments || db.moments[attr] == nil
		f.freq = f.freq || db.tables[attr] == nil && db.coldFreq(attr, e.fn)
	}
	return f
}

// answer finalizes a from the states one read folded, installs the
// answer on e, and keeps what the read folded for its attribute: the
// moments (count counts their extremes' copies over the read), a table
// the refill of a stale tabled row built as maintained, any other table
// cold while a freq row of the attribute is still uncached. The caller
// holds db.mu.
func (db *DB) answer(a *aggregate, e *entry, st State, f families, retain bool, count func(exec.Moments) exec.KeptMoments) (float64, error) {
	attr := e.attrs[0]
	keep := db.policy == PolicyStrategies
	maintained := retain && a.tabled()
	keepTable := f.freq && keep && (maintained || db.coldFreq(attr, e.fn))
	v, err := a.finalize(st)
	if err != nil {
		return 0, err
	}
	if v, err = db.install(e, v); err != nil {
		return 0, err
	}
	if keep && f.moments {
		db.moments[attr] = &keptMoments{KeptMoments: count(st.Moments), source: e.source}
	}
	if keepTable {
		db.keepTable(attr, st.Freq, maintained)
	}
	db.installWindow(a, e, st.Freq)
	return v, nil
}

// coldFreq reports whether a freq row of attr other than except has no
// fresh entry — a fill a kept table would still serve.
func (db *DB) coldFreq(attr, except string) bool {
	for i := range aggregates {
		a := &aggregates[i]
		if a.freq == nil || a.name == except {
			continue
		}
		slot, ok := db.idx.Get(entryKey(a.name, []string{attr}))
		if !ok || !db.entries[slot].fresh {
			return true
		}
	}
	return false
}

// keepTable keeps t as attr's table, maintained or cold; a cold table
// makes room for itself by dropping the least recently used cold tables.
func (db *DB) keepTable(attr string, t exec.FreqTable, maintained bool) {
	db.dropTable(attr)
	k := &keptTable{FreqTable: t, maintained: maintained}
	db.touch(k)
	if !maintained {
		if k.bytes() > coldTableBudget {
			return
		}
		for db.coldBytes+k.bytes() > coldTableBudget {
			var lru *keptTable
			victim := ""
			for a, c := range db.tables {
				if !c.maintained && (lru == nil || c.used < lru.used) {
					lru, victim = c, a
				}
			}
			db.dropTable(victim)
		}
		db.coldBytes += k.bytes()
	}
	db.tables[attr] = k
}

// touch marks t as used now.
func (db *DB) touch(t *keptTable) {
	db.clock++
	t.used = db.clock
}

// dropTable forgets attr's table, if any.
func (db *DB) dropTable(attr string) {
	if t := db.tables[attr]; t != nil && !t.maintained {
		db.coldBytes -= t.bytes()
	}
	delete(db.tables, attr)
}

// settle drops attr's cold table once every freq row it would serve is
// cached. The caller holds db.mu.
func (db *DB) settle(attr string) {
	if t := db.tables[attr]; t != nil && !t.maintained && !db.coldFreq(attr, "") {
		db.dropTable(attr)
	}
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

// installWindow attaches a windowed row's sliding window when the
// function's strategy asks for one, seeded from the frequency table its
// fill finalized from. Policy benches manage freshness, not per-function
// state.
func (db *DB) installWindow(a *aggregate, e *entry, t exec.FreqTable) {
	if !a.windowed || db.policy != PolicyStrategies || db.mdb.StrategyFor(e.fn) != rules.StrategyWindow {
		return
	}
	if w, err := medwin.NewQuantileFreq(t.Values, t.Counts, a.quantile, db.WindowCapacity); err == nil {
		w.SetCounters(db.met.medSlides, db.met.medRebuilds)
		e.win = w
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
// invalidation of Section 4.3 — and drops attr's kept states. It uses
// the attribute-clustered index scan, which experiment "ablation:
// clustering" measures.
func (db *DB) Invalidate(attr string) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.dropTable(attr)
	delete(db.moments, attr)
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
	u := batchUpdate{deltas: deltas}
	prefix := index.Key(attr)
	readsMoments, readsTable := db.readers(prefix)
	if kept := db.moments[attr]; kept != nil {
		u.absorbed = int64(len(deltas))
		u.moments = &kept.Moments
		switch {
		case kept.Apply(deltas) && !db.lostAnswer(attr, &kept.KeptMoments):
		case readsMoments:
			// A delete the state cannot retract, or the last copy of an
			// extremum a cached entry reads: refold from the data (Section 4.3).
			xs, valid := db.readSource(kept.source)
			kept.KeptMoments = exec.KeepMoments(xs, valid)
			u.rebuilds++
			u.absorbed = 0
		default:
			// No cached row reads it: the next read keeps a new one.
			delete(db.moments, attr)
			u.moments = nil
		}
	}
	if t := db.tables[attr]; t != nil {
		// An updated attribute's table becomes the delta form of its tabled
		// rows and leaves the cold budget — if it has tabled rows to keep
		// current: a cold table none reads is dropped, not maintained. A
		// delete of a value it does not hold drops it too; its entries go
		// stale and the next access refills.
		db.dropTable(attr)
		if readsTable && t.Apply(changes(deltas)) {
			t.maintained = true
			db.tables[attr] = t
			u.table = &t.FreqTable
		}
	}
	db.idx.ScanPrefix(prefix, func(_ []byte, slot int64) bool {
		db.applyUpdate(db.entries[slot], &u)
		return true
	})
	publish := func(c *obs.Counter, key string, n int64) {
		if n > 0 {
			c.Add(n)
			sp.SetAttr(key, strconv.FormatInt(n, 10))
		}
	}
	publish(db.met.incremental, "incremental", u.incremental)
	publish(db.met.slides, "slides", u.slides)
	publish(db.met.rebuilds, "rebuilds", u.rebuilds)
	publish(db.met.recomputes, "recomputes", u.recomputes)
}

// lostAnswer reports whether attr caches an extremum k has lost.
func (db *DB) lostAnswer(attr string, k *exec.KeptMoments) bool {
	cached := func(fn string) bool {
		_, ok := db.idx.Get(entryKey(fn, []string{attr}))
		return ok
	}
	lostMin, lostMax := k.Lost()
	return lostMin && cached("min") || lostMax && cached("max")
}

// readers reports which kept states the cached entries under an
// attribute's prefix, fresh or stale, are re-finalized from: the
// moments, the table.
func (db *DB) readers(prefix []byte) (moments, table bool) {
	db.idx.ScanPrefix(prefix, func(_ []byte, slot int64) bool {
		if a := aggregateByName[db.entries[slot].fn]; a != nil {
			moments = moments || a.moments != nil
			table = table || a.tabled()
		}
		return true
	})
	return moments, table
}

// batchUpdate is one OnUpdate pass: the batch, the attribute's kept
// states with it merged in (nil where none lives), the deltas the moments
// state absorbed without a refold, and what the pass did across the
// entries it touched — deltas folded into kept states, deltas slid
// through windows, state rebuilt from the column, entries recomputed by
// policy.
type batchUpdate struct {
	deltas   []incr.Delta
	moments  *exec.Moments
	table    *exec.FreqTable
	absorbed int64

	incremental, slides, rebuilds, recomputes int64
}

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

// applyUpdate is one entry's reaction to the batch u carries.
func (db *DB) applyUpdate(e *entry, u *batchUpdate) {
	switch db.policy {
	case PolicyInvalidateAll:
		e.fresh = false
		return
	case PolicyRecomputeAll:
		e.fresh = false
		if e.source != nil {
			if _, err := db.fill(e, nil, false, nil); err == nil {
				u.recomputes++
			}
		}
		return
	}

	// PolicyStrategies.
	if e.win != nil {
		for _, d := range u.deltas {
			if d.Delete {
				if err := e.win.Delete(d.Old); err != nil {
					e.fresh = false
					return
				}
			}
			if d.Insert {
				e.win.Insert(d.New)
			}
			u.slides++
		}
		if e.win.NeedsRebuild() {
			// The pointer ran off: regenerate with one pass (Section 4.2).
			xs, valid := db.readSource(e.source)
			u.rebuilds++
			e.win.Rebuild(xs, valid)
		}
		if v, err := e.win.Value(); err == nil {
			e.result, e.fresh = ScalarOf(v), true
		} else {
			e.fresh = false
		}
		return
	}
	// A moments or tabled row re-finalizes from its attribute's kept state.
	// Everything else goes stale: StrategyInvalidate, custom entries, a row
	// whose state is gone.
	e.fresh = false
	a := aggregateByName[e.fn]
	var v float64
	var err error
	switch {
	case a == nil:
		return
	case a.moments != nil && u.moments != nil:
		u.incremental += u.absorbed
		v, err = a.moments(*u.moments)
	case a.tabled() && u.table != nil:
		if v, err = a.freq(*u.table); err == nil {
			u.incremental += int64(len(u.deltas))
		}
	default:
		return
	}
	if err == nil {
		e.result, e.fresh = ScalarOf(v), true
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
