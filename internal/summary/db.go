package summary

import (
	"bytes"
	"fmt"
	"slices"
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

// Source reads one column of the view for (re)computation — the only
// path by which the Summary Database touches the data, so counting calls
// to it counts full column passes. A read that fails returns its error,
// and nothing it produced enters the cache: a fill fails, a kept state it
// was to refold is dropped, a window it was to rebuild goes stale.
type Source func() (xs []float64, valid []bool, err error)

// GatherSource returns one column's merged State from partials held
// outside the view (the sharded copy), folding what the flags name — a
// state row's fold flags, as exec.ColumnFold takes them. complete is
// false when the gather substituted or lost partials; such an answer is
// handed to the caller but never enters the cache — the rule a budget
// breach already follows — so the next access gathers again and a healed
// shard needs no invalidation protocol.
type GatherSource func(moments, freq bool) (st State, complete bool, err error)

// Sources are the input forms a caller offers for one column, bound to
// the store the view has at the call. A miss or refill reads the first
// that is on offer — Gather, then Runs, then Rows — and no other: a form
// that fails fails the call. Only Rows outlives it, on the entry and the
// kept states, because OnUpdate refolds and rebuilds through it; Rows
// reads the view as it is when called.
type Sources struct {
	Rows   Source       // required; it refolds kept states and rebuilds windows
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
	// win is a windowed row's maintenance state (StrategyWindow); every
	// other built-in re-finalizes from its attribute's kept state. A stale
	// entry holds none (stale).
	win *medwin.Window
	// source is the row source of the entry's last fill, which a window
	// rebuild and a recompute-all update read (built-in functions).
	source Source
}

// entryKey is the primary key of entry (fn, attrs): the attributes, then
// the function, so the index is clustered on the first attribute.
func entryKey(fn string, attrs []string) []byte {
	parts := append(append([]string{}, attrs...), fn)
	return index.Key(parts...)
}

// reachKey is the secondary key by which the entry (fn, attrs) is reached
// through attr, a further attribute of its tuple: attr's prefix, an empty
// part — which no attribute or function name is, so it is no other
// entry's primary key — and the entry's primary key.
func reachKey(attr, fn string, attrs []string) []byte {
	return append(append(attrPrefix(attr), 0), entryKey(fn, attrs)...)
}

// attrPrefix is the index prefix of the entries that name attr: its key
// part and the separator after it, so that an attribute whose name
// extends attr's (X, XY) falls outside it. It covers the primary keys of
// the entries attr leads and the reach keys of those it is a further
// attribute of, each entry once.
func attrPrefix(attr string) []byte { return index.Key(attr, "") }

// stale marks e stale. A stale entry holds no window: whatever it slid
// before, it missed the change that made it stale, so the next fill
// installs a window of its own.
func (e *entry) stale() { e.fresh, e.win = false, nil }

// DB is one view's Summary Database. Safe for concurrent use: a view may
// be shared by "a group of users" (Section 3.2), and a published view's
// cache serves several analysts at once. Sources are invoked while the
// lock is held, so a Source must never call back into the same DB.
type DB struct {
	mu      sync.Mutex
	mdb     *rules.ManagementDB
	policy  Policy       // guarded by mu
	idx     *index.BTree // guarded by mu; (attr..., fn) and reach keys -> slot
	entries []*entry     // guarded by mu
	// kept holds the attributes' kept states, one record per (attribute,
	// row of the state table): what one read of a column folded, kept so
	// that every later fill of the attribute finalizes from it and every
	// update merges into it. A read under the per-function policy folds
	// each state the attribute lacks and would keep, so a cold attribute
	// costs one column pass however many functions are asked of it. One
	// retention rule covers every state: a record is maintained — kept
	// until Invalidate or SetPolicy drops it, or an update leaves it unable
	// to serve any cached row — or cold, kept while a row not yet cached
	// would fill from it, within coldTableBudget, least recently used out
	// first. The cache-wide policies keep none.
	kept      map[keptKey]*kept // guarded by mu
	coldBytes int64             // guarded by mu; the cold states' size
	clock     uint64            // guarded by mu; orders the kept states' uses
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
	return &DB{mdb: mdb, idx: index.New(), kept: map[keptKey]*kept{},
		WindowCapacity: 100, reg: reg, met: newDBMetrics(reg)}
}

// coldTableBudget bounds the bytes of a view's cold states: room for the
// table of one high-cardinality column of a few hundred thousand rows
// beside the low-cardinality ones an analyst works through with it. A
// cold state larger than the budget is not kept.
const coldTableBudget = 2 << 20

// keptKey names one kept state: an attribute and a row of the state table.
type keptKey struct {
	attr  string
	state stateKind
}

// kept is one kept state, under the retention rule every state shares.
type kept struct {
	val        any    // the state's kept form (stateRow)
	source     Source // the row source that refolds it
	maintained bool   // outside the budget, kept until dropped
	used       uint64 // the clock at its last use
}

// SetPolicy switches the cache-wide update policy. Kept states are
// per-function state only PolicyStrategies keeps: none outlives it.
func (db *DB) SetPolicy(p Policy) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.policy = p
	clear(db.kept)
	db.coldBytes = 0
}

// dbMetrics caches the registry handles: the Counters families plus the
// window and run-strategy counts.
type dbMetrics struct {
	hits, misses, staleRefill     *obs.Counter
	incremental, slides, rebuilds *obs.Counter
	recomputes, passes            *obs.Counter
	medSlides, medRebuilds        *obs.Counter
	// Run-aware strategy accounting (exec.* family; see runs.go).
	rowsDecoded, runStrategyHits *obs.Counter
}

func newDBMetrics(reg *obs.Registry) dbMetrics {
	return dbMetrics{
		hits:            reg.Counter(obs.MSummaryHits),
		misses:          reg.Counter(obs.MSummaryMisses),
		staleRefill:     reg.Counter(obs.MSummaryStaleRefill),
		incremental:     reg.Counter(obs.MSummaryIncremental),
		slides:          reg.Counter(obs.MSummarySlides),
		rebuilds:        reg.Counter(obs.MSummaryRebuilds),
		recomputes:      reg.Counter(obs.MSummaryRecomputes),
		passes:          reg.Counter(obs.MSummaryPasses),
		medSlides:       reg.Counter(obs.MMedwinSlides),
		medRebuilds:     reg.Counter(obs.MMedwinRebuilds),
		rowsDecoded:     reg.Counter(obs.MExecRowsDecoded),
		runStrategyHits: reg.Counter(obs.MExecRunStrategyHits),
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
// computing (and installing maintenance state) on a miss or a stale
// refill. Its source cannot fail: a column held in memory. A fill wraps
// it as the fallible Source an entry keeps; a hit binds nothing.
func (db *DB) Scalar(fn, attr string, source func() ([]float64, []bool)) (float64, error) {
	return db.ScalarFrom(fn, attr, func() Sources {
		return Sources{Rows: func() ([]float64, []bool, error) {
			xs, valid := source()
			return xs, valid, nil
		}}
	})
}

// ScalarFrom is Scalar with every input form the caller can offer for
// this call, bound by bind only on a miss or a stale refill, so a hit
// builds no source. A non-nil Runs or Gather is a decision, not a hint:
// the view layer has already judged the column run-eligible, or its
// sharded copy current. A fill served from a gather keeps no state and
// installs no window: updates invalidate its entry unless a read kept the
// attribute's states, and the next access refills. A fill from runs keeps
// what a row read keeps. A read that fails fails the call and leaves the
// cache as it was.
func (db *DB) ScalarFrom(fn, attr string, bind func() Sources) (float64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	sp := db.tracer.Begin("summary.scalar", obs.A("fn", fn), obs.A("attr", attr))
	defer sp.End()
	r, err := db.serve(sp, fn, []string{attr}, func(e *entry, refill bool) (Result, error) {
		v, err := db.fill(e, bind(), refill, sp)
		return ScalarOf(v), err
	})
	return r.Scalar, err
}

// ResultFrom is ScalarFrom for a result of any kind over a tuple of
// attributes — a histogram, a correlation, a regression: fn(attrs) from
// the cache when fresh, and otherwise computed by final from the tuple's
// columns, each distinct attribute read once, in tuple order, through the
// Source bind binds for it; an attribute named twice hands final the same
// column at both positions. bind is called only on a miss or a stale
// refill, and final runs under the cache's lock, so it must not call back
// into the DB. A read or a final that fails fails the call and leaves the
// cache as it was. The entry keeps no source: under every policy an update
// of any attribute of its tuple marks it stale, and the next call refills
// it. fn must not be a built-in function, whose entries ScalarFrom
// maintains.
func (db *DB) ResultFrom(fn string, attrs []string, bind func(attr string) Source, final func(xs [][]float64, valid [][]bool) (Result, error)) (Result, error) {
	if _, builtin := aggregateRow[fn]; builtin {
		return Result{}, fmt.Errorf("summary: %s is a built-in function, filled by ScalarFrom", fn)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	sp := db.tracer.Begin("summary.result", obs.A("fn", fn), obs.A("attrs", strings.Join(attrs, ",")))
	defer sp.End()
	return db.serve(sp, fn, attrs, func(e *entry, _ bool) (Result, error) {
		xs, valid := make([][]float64, len(attrs)), make([][]bool, len(attrs))
		for i, attr := range attrs {
			if j := slices.Index(attrs[:i], attr); j >= 0 {
				xs[i], valid[i] = xs[j], valid[j]
				continue
			}
			var err error
			if xs[i], valid[i], err = db.readSource(bind(attr)); err != nil {
				return Result{}, err
			}
		}
		// final folds the columns inline, under a fold span that charges
		// nothing: a result's fill costs in ticks what its reads charge.
		fold := db.tracer.Begin("fold", obs.A("fn", fn), obs.A("engine", "serial"))
		r, err := final(xs, valid)
		fold.End()
		if err != nil {
			return Result{}, err
		}
		return r, db.install(e, r)
	})
}

// serve is the search-then-insert protocol of Section 3.2, one for every
// result: "if the desired pair is found, the corresponding result will be
// returned; otherwise, after the function has been applied ... the new
// information will be inserted". A fresh entry is a hit; a stale one is
// refilled in place by fill (entries restored from disk carry no source,
// persist.go); a missing one is filled and inserted if fill left it
// fresh. fill returns the answer, which it installs on e unless the
// answer may not be cached (a degraded gather); one that fails leaves the
// cache as it was. sp states the outcome. The caller holds db.mu.
func (db *DB) serve(sp *obs.Span, fn string, attrs []string, fill func(e *entry, refill bool) (Result, error)) (Result, error) {
	if slot, ok := db.idx.Get(entryKey(fn, attrs)); ok {
		e := db.entries[slot]
		if e.fresh {
			db.met.hits.Inc()
			sp.SetAttr("outcome", "hit")
			return e.result, nil
		}
		r, err := fill(e, true)
		if err != nil {
			return Result{}, err
		}
		// The counters and the span's outcome are written together, once the
		// refill has answered: one that failed (a read error, a budget breach)
		// is neither counted nor given an outcome, and the entry stays stale.
		db.met.staleRefill.Inc()
		db.met.recomputes.Inc()
		sp.SetAttr("outcome", "stale-refill")
		db.settle(attrs[0])
		return r, nil
	}
	db.met.misses.Inc()
	sp.SetAttr("outcome", "miss")
	e := &entry{fn: fn, attrs: append([]string(nil), attrs...)}
	r, err := fill(e, false)
	if err != nil {
		return Result{}, err
	}
	if e.fresh {
		db.insert(e)
		db.settle(attrs[0])
	}
	return r, nil
}

// fill computes built-in entry e from the first input form on offer —
// the attribute's kept state of e's row, unless the row refuses it (no
// column is read; sp says strategy=kept), then src's Gather, Runs, Rows —
// and records the result on e as fresh, with src.Rows as its source. A
// read of runs or rows leaves behind what OnUpdate maintains: the states
// its plan keeps and a window. A read that fails — a device error, or a
// budget the read breached — returns its error before anything is folded,
// and neither it nor an incomplete gather leaves anything in the cache.
// The caller holds db.mu.
func (db *DB) fill(e *entry, src Sources, retain bool, sp *obs.Span) (float64, error) {
	a, err := lookup(e.fn)
	if err != nil {
		return 0, err
	}
	e.source = src.Rows
	if k := db.kept[keptKey{e.attrs[0], a.state}]; k != nil && a.answers(k.val) {
		db.touch(k)
		v, err := db.answer(a, e, states[a.state].state(k.val), plan{}, nil)
		if err == nil {
			sp.SetAttr("strategy", "kept")
		}
		return v, err
	}
	if src.Gather != nil {
		st, complete, err := db.readGather(src.Gather, &states[a.state])
		if err != nil {
			return 0, err
		}
		// Finalizing merged partials is free: the shards already paid for
		// the fold, so per-shard totals still sum exactly to the query root.
		v, err := a.final(st)
		if err != nil || !complete {
			return v, err
		}
		return v, db.install(e, ScalarOf(v))
	}
	p := db.plan(a, e, retain)
	if src.Runs != nil {
		rc, err := db.readRunSource(src.Runs)
		if err != nil {
			return 0, err
		}
		st, err := db.foldRuns(a, rc, p.moments, p.freq)
		if err != nil {
			return 0, err
		}
		return db.answer(a, e, st, p, func(m exec.Moments) exec.KeptMoments { return exec.KeepRuns(m, rc) })
	}
	xs, valid, err := db.readSource(src.Rows)
	if err != nil {
		return 0, err
	}
	st := db.foldRows(a, xs, valid, p.moments, p.freq)
	return db.answer(a, e, st, p, func(m exec.Moments) exec.KeptMoments { return exec.Keep(m, xs, valid) })
}

// plan is what one read does with each row of the state table: whether
// it keeps the state, maintained or cold, and the fold kernels' flags for
// the states it folds.
type plan struct {
	keep, maintained [len(states)]bool
	moments, freq    bool
}

// plan decides what a read for entry e, of row a, does with each state of
// its attribute. It folds a's own state, to answer. Under the per-function
// policy it keeps every state it folds that the state's retention allows,
// and folds each state the attribute lacks only to keep it. A state is
// kept maintained when its row says so or the read is the refill (retain)
// of a row an update re-finalizes from it; otherwise it is kept cold while
// a row not yet cached, other than a, would fill from it.
func (db *DB) plan(a *aggregate, e *entry, retain bool) plan {
	p := plan{moments: states[a.state].moments, freq: states[a.state].freq}
	if db.policy != PolicyStrategies {
		return p
	}
	// served are the rows no kept state would fill next: the fresh ones, and a.
	served := db.rows(attrPrefix(e.attrs[0]), true) | 1<<aggregateRow[a.name]
	for s, row := range states {
		own := stateKind(s) == a.state
		p.maintained[s] = row.maintained || retain && own && !a.windowed
		lacks := db.kept[keptKey{e.attrs[0], stateKind(s)}] == nil
		p.keep[s] = (own || lacks) && (p.maintained[s] || stateRows[s]&^served != 0)
		if p.keep[s] {
			p.moments, p.freq = p.moments || row.moments, p.freq || row.freq
		}
	}
	return p
}

// answer finalizes a from st — the states one read folded, or the kept
// state a fill finalizes from — installs the answer on e with its window,
// and keeps what plan p says (count counts the moments' extremes' copies
// over the read). The caller holds db.mu.
func (db *DB) answer(a *aggregate, e *entry, st State, p plan, count func(exec.Moments) exec.KeptMoments) (float64, error) {
	v, err := a.final(st)
	if err != nil {
		return 0, err
	}
	if err := db.install(e, ScalarOf(v)); err != nil {
		return 0, err
	}
	for s := range states {
		if p.keep[s] {
			db.keep(keptKey{e.attrs[0], stateKind(s)}, states[s].keep(st, count), e.source, p.maintained[s])
		}
	}
	db.installWindow(a, e, st.Freq)
	return v, nil
}

// rows returns the built-in rows with an entry under prefix (attrPrefix):
// fresh ones only, or fresh and stale.
func (db *DB) rows(prefix []byte, freshOnly bool) rowSet {
	var set rowSet
	db.idx.ScanPrefix(prefix, func(_ []byte, slot int64) bool {
		e := db.entries[slot]
		if i, ok := aggregateRow[e.fn]; ok && (e.fresh || !freshOnly) {
			set |= 1 << i
		}
		return true
	})
	return set
}

// keep keeps val as the state key names, maintained or cold; a cold state
// makes room for itself by dropping the least recently used cold states,
// and one larger than coldTableBudget is not kept.
func (db *DB) keep(key keptKey, val any, source Source, maintained bool) {
	db.drop(key)
	k := &kept{val: val, source: source, maintained: maintained}
	db.touch(k)
	if !maintained {
		n := states[key.state].bytes(val)
		if n > coldTableBudget {
			return
		}
		for db.coldBytes+n > coldTableBudget {
			var lru *kept
			var victim keptKey
			for key, c := range db.kept {
				if !c.maintained && (lru == nil || c.used < lru.used) {
					lru, victim = c, key
				}
			}
			db.drop(victim)
		}
		db.coldBytes += n
	}
	db.kept[key] = k
}

// touch marks k as used now.
func (db *DB) touch(k *kept) {
	db.clock++
	k.used = db.clock
}

// maintain takes the state key names out of the cold budget: it is kept
// until dropped.
func (db *DB) maintain(key keptKey, k *kept) {
	if !k.maintained {
		db.coldBytes -= states[key.state].bytes(k.val)
		k.maintained = true
	}
}

// drop forgets the state key names, if kept: out of the budget, then out
// of the map.
func (db *DB) drop(key keptKey) {
	if k := db.kept[key]; k != nil {
		db.maintain(key, k)
		delete(db.kept, key)
	}
}

// settle drops attr's cold states once no row still to be cached would
// fill from them. The caller holds db.mu.
func (db *DB) settle(attr string) {
	for s := range states {
		key := keptKey{attr, stateKind(s)}
		if k := db.kept[key]; k != nil && !k.maintained && stateRows[s]&^db.rows(attrPrefix(attr), true) == 0 {
			db.drop(key)
		}
	}
}

// install records r on e as its fresh result, unless the reads and the
// fold that produced it ran the query over budget.
func (db *DB) install(e *entry, r Result) error {
	if err := db.tracer.BudgetErr(); err != nil {
		return err
	}
	e.result, e.fresh = r, true
	return nil
}

// readSource runs one full column pass through source under a "scan"
// span, so whatever the reader charges through the tracer (device ticks
// for store-backed views, cell costs for memory columns) lands on the
// scan node of the query's profile. Counts the pass that answers; one
// that fails returns its error. The caller holds db.mu.
func (db *DB) readSource(source Source) ([]float64, []bool, error) {
	sp := db.tracer.Begin("scan")
	defer sp.End()
	xs, valid, err := source()
	if err != nil {
		return nil, nil, err
	}
	sp.SetAttr("rows", fmt.Sprintf("%d", len(xs)))
	sp.SetAttr("strategy", "rows")
	db.met.passes.Inc()
	db.met.rowsDecoded.Add(int64(len(xs)))
	return xs, valid, nil
}

// readGather runs one scatter-gather pass under a "scan" span; the
// per-shard spans the gather stitches in carry the device charges.
// Counts the pass. The caller holds db.mu.
func (db *DB) readGather(gather GatherSource, row *stateRow) (State, bool, error) {
	sp := db.tracer.Begin("scan")
	st, complete, err := gather(row.moments, row.freq)
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

// insert adds e under its primary key and a reach key for each further
// attribute of its tuple, once per distinct attribute.
func (db *DB) insert(e *entry) {
	slot := int64(len(db.entries))
	db.entries = append(db.entries, e)
	db.idx.Put(entryKey(e.fn, e.attrs), slot)
	for i := 1; i < len(e.attrs); i++ {
		if !slices.Contains(e.attrs[:i], e.attrs[i]) {
			db.idx.Put(reachKey(e.attrs[i], e.fn, e.attrs), slot)
		}
	}
}

// Lookup returns the cached result for (fn, attrs) without computing.
// Stale entries report !ok. Its callers are the sharded copy, which reads
// the partials it checkpointed with StoreCustom, and the tests and
// experiments that inspect a cache; a view reads through ScalarFrom and
// ResultFrom.
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

// StoreCustom inserts or overwrites a result computed by the caller,
// marking it fresh. Its one caller outside tests is the sharded copy
// (internal/shard), which checkpoints per-shard partials and its manifest
// here and reads them back with Lookup; a view's results fill through
// ResultFrom. After invalidation the entry stays stale until the caller
// stores again.
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

// Invalidate marks every entry naming attr stale — the bulk
// invalidation of Section 4.3 — and drops attr's kept states. It uses
// the attribute-clustered index scan, which experiment "ablation:
// clustering" measures, and reaches a multi-attribute entry through
// whichever attribute of its tuple attr is.
func (db *DB) Invalidate(attr string) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	for s := range states {
		db.drop(keptKey{attr, stateKind(s)})
	}
	n := 0
	db.idx.ScanPrefix(attrPrefix(attr), func(_ []byte, slot int64) bool {
		e := db.entries[slot]
		if e.fresh {
			n++
		}
		e.stale()
		return true
	})
	return n
}

// OnUpdate propagates one column update (a batch of deltas against attr)
// into the cache. Each affected entry reacts per the active policy and
// its function's strategy, exactly the flow of Section 4.1: retrieve all
// values clustered on the attribute, then apply each function's rules.
// An entry over a tuple of attributes is reached by an update of any of
// them, and goes stale: it keeps no state an update could maintain.
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
	prefix := attrPrefix(attr)
	cached := db.rows(prefix, false)
	for s := range states {
		db.update(keptKey{attr, stateKind(s)}, cached, &u)
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

// update merges u's batch into the state key names, if kept, once for
// every entry of the attribute; cached is the attribute's rows with an entry, fresh or
// stale. A cold state no cached row re-finalizes from is dropped, not
// maintained. A state the batch leaves unable to describe the column (a
// delete it cannot account for) or to answer a cached row is refolded
// from its source if a cached row re-finalizes from it — one pass, a
// rebuild (Section 4.3) — and dropped otherwise, or when the refold's
// read fails: its entries go stale, and the next read keeps a new one.
func (db *DB) update(key keptKey, cached rowSet, u *batchUpdate) {
	row := &states[key.state]
	readers := cached & stateRows[key.state] &^ windowedRows
	k := db.kept[key]
	if k == nil || !k.maintained && readers == 0 {
		db.drop(key)
		return
	}
	db.maintain(key, k)
	u.absorbed[key.state] = int64(len(u.deltas))
	if !row.apply(k.val, u.deltas) || refused(k.val, cached&stateRows[key.state]) {
		if readers == 0 {
			db.drop(key)
			return
		}
		xs, valid, err := db.readSource(k.source)
		if err != nil {
			db.drop(key)
			return
		}
		var st State
		st.Moments, st.Freq = exec.ColumnFold(nil, xs, valid, exec.DefaultChunk, row.moments, row.freq)
		k.val = row.keep(st, func(m exec.Moments) exec.KeptMoments { return exec.Keep(m, xs, valid) })
		u.rebuilds++
		u.absorbed[key.state] = 0
	}
	u.kept[key.state] = k
}

// batchUpdate is one OnUpdate pass: the batch; per state, the
// attribute's kept state with the batch merged in (nil where none lives)
// and the deltas it absorbed without a refold; and
// what the pass did across the entries it touched — deltas folded into
// kept states, deltas slid through windows, state rebuilt from the
// column, entries recomputed by policy.
type batchUpdate struct {
	deltas   []incr.Delta
	kept     [len(states)]*kept
	absorbed [len(states)]int64

	incremental, slides, rebuilds, recomputes int64
}

// applyUpdate is one entry's reaction to the batch u carries.
func (db *DB) applyUpdate(e *entry, u *batchUpdate) {
	switch db.policy {
	case PolicyInvalidateAll:
		e.stale()
		return
	case PolicyRecomputeAll:
		e.stale()
		if e.source != nil {
			if _, err := db.fill(e, Sources{Rows: e.source}, false, nil); err == nil {
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
					e.stale()
					return
				}
			}
			if d.Insert {
				e.win.Insert(d.New)
			}
			u.slides++
		}
		if e.win.NeedsRebuild() {
			// The pointer ran off: regenerate with one pass (Section 4.2),
			// or go stale if the pass fails.
			xs, valid, err := db.readSource(e.source)
			if err != nil {
				e.stale()
				return
			}
			u.rebuilds++
			e.win.Rebuild(xs, valid)
		}
		if v, err := e.win.Value(); err == nil {
			e.result, e.fresh = ScalarOf(v), true
		} else {
			e.stale()
		}
		return
	}
	// Any other built-in re-finalizes from its attribute's kept state.
	// Everything else goes stale: a windowed row without a window, custom
	// entries, a row whose state is gone.
	i, ok := aggregateRow[e.fn]
	if !ok || aggregates[i].windowed || u.kept[aggregates[i].state] == nil {
		e.stale()
		return
	}
	a := &aggregates[i]
	u.incremental += u.absorbed[a.state]
	if v, err := a.final(states[a.state].state(u.kept[a.state].val)); err == nil {
		e.result, e.fresh = ScalarOf(v), true
	} else {
		e.stale()
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
// function within an attribute. An entry is listed once, under the first
// attribute of its tuple.
func (db *DB) Dump() []Row {
	db.mu.Lock()
	defer db.mu.Unlock()
	var rows []Row
	db.idx.Scan(nil, nil, func(key []byte, slot int64) bool {
		e := db.entries[slot]
		if !bytes.Equal(key, entryKey(e.fn, e.attrs)) {
			return true // a reach key
		}
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
