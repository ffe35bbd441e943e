// Package rules implements the Management Database of Section 3.2: the
// single per-DBMS repository of control information — rules for
// incrementally recomputing Summary Database values, rules describing how
// derived attributes react to updates of their inputs (local vs global),
// view definitions, and per-view update histories that support undo.
package rules

import (
	"fmt"
	"sort"
	"sync"

	"statdb/internal/dataset"
)

// Strategy is how a cached function value is maintained when the data it
// was computed from changes (Section 4.3 enumerates the choices).
type Strategy uint8

const (
	// StrategyRecompute always recomputes from the data on update — the
	// no-cache-maintenance baseline.
	StrategyRecompute Strategy = iota
	// StrategyIncremental applies a finite-differenced f′ (Section 4.2):
	// a maintainer folds each delta in, or the deltas are merged into the
	// attribute's frequency table and the value re-read from it.
	StrategyIncremental
	// StrategyWindow maintains the value through a sliding order-statistic
	// window (the median technique of Section 4.2).
	StrategyWindow
	// StrategyInvalidate marks the cached value stale on update and
	// regenerates lazily when next requested (the fallback of Section 4.3).
	StrategyInvalidate
)

func (s Strategy) String() string {
	switch s {
	case StrategyIncremental:
		return "incremental"
	case StrategyWindow:
		return "window"
	case StrategyInvalidate:
		return "invalidate"
	default:
		return "recompute"
	}
}

// Scope classifies a derived attribute's reaction to updates of its
// inputs (the Section 3.2 examples: sum-of-three-attributes is local,
// regression residuals are global).
type Scope uint8

const (
	// ScopeLocal: the derived value depends only on values in the same
	// row; an input update recomputes one cell.
	ScopeLocal Scope = iota
	// ScopeGlobal: the derived vector depends on the whole column (the
	// model may change); any input update regenerates the entire vector
	// or marks it out of date.
	ScopeGlobal
)

func (s Scope) String() string {
	if s == ScopeGlobal {
		return "global"
	}
	return "local"
}

// DerivedRule describes how one derived attribute of one view is kept
// consistent.
type DerivedRule struct {
	View   string
	Attr   string
	Inputs []string // attributes the derivation reads
	Scope  Scope
	// Row recomputes the derived cell from its row (ScopeLocal).
	Row func(sch *dataset.Schema, row dataset.Row) dataset.Value
	// Column regenerates the whole derived vector (ScopeGlobal).
	Column func(ds *dataset.Dataset) ([]dataset.Value, error)
}

// Validate checks the rule is internally consistent.
func (r DerivedRule) Validate() error {
	if r.View == "" || r.Attr == "" {
		return fmt.Errorf("rules: derived rule needs view and attribute names")
	}
	if len(r.Inputs) == 0 {
		return fmt.Errorf("rules: derived rule %s.%s has no inputs", r.View, r.Attr)
	}
	switch r.Scope {
	case ScopeLocal:
		if r.Row == nil {
			return fmt.Errorf("rules: local rule %s.%s needs a Row function", r.View, r.Attr)
		}
	case ScopeGlobal:
		if r.Column == nil {
			return fmt.Errorf("rules: global rule %s.%s needs a Column function", r.View, r.Attr)
		}
	}
	return nil
}

// ViewDef records how a concrete view was materialized: the raw file it
// came from and the operation list, so another analyst can see the view's
// provenance (and the system can detect re-creation of an existing view,
// Section 2.3).
type ViewDef struct {
	Name    string
	Analyst string
	Source  string   // raw archive file
	Ops     []string // textual materialization steps, in order
	Public  bool     // published for other analysts (Section 2.3)
}

// Fingerprint canonically identifies the view's derivation for duplicate
// detection: same source and same operation list means the same view
// contents.
func (v ViewDef) Fingerprint() string {
	fp := v.Source
	for _, op := range v.Ops {
		fp += "\x00" + op
	}
	return fp
}

// ManagementDB is the single control repository. It is safe for
// concurrent use by multiple analyst sessions.
type ManagementDB struct {
	mu         sync.RWMutex
	strategies map[string]Strategy    // function name -> maintenance strategy
	derived    map[string]DerivedRule // view\x00attr -> rule
	views      map[string]*ViewDef    // view name -> definition
	histories  map[string]*History    // view name -> update history
	seq        int64                  // virtual timestamp source
}

// NewManagementDB creates an empty Management Database with the default
// strategy table: the aggregates Koenig–Paige can difference and the
// two read off a maintained frequency table run incrementally, order
// statistics run through windows, and everything else invalidates.
func NewManagementDB() *ManagementDB {
	m := &ManagementDB{
		strategies: make(map[string]Strategy),
		derived:    make(map[string]DerivedRule),
		views:      make(map[string]*ViewDef),
		histories:  make(map[string]*History),
	}
	for _, fn := range []string{"count", "sum", "mean", "variance", "sd", "min", "max", "mode", "unique"} {
		m.strategies[fn] = StrategyIncremental
	}
	for _, fn := range []string{"median", "q1", "q3", "quantile"} {
		m.strategies[fn] = StrategyWindow
	}
	for _, fn := range []string{"histogram", "frequencies"} {
		m.strategies[fn] = StrategyInvalidate
	}
	return m
}

// StrategyFor returns the maintenance strategy for function fn,
// defaulting to StrategyInvalidate for unknown functions — an unknown
// function's cached value can always be safely invalidated.
func (m *ManagementDB) StrategyFor(fn string) Strategy {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if s, ok := m.strategies[fn]; ok {
		return s
	}
	return StrategyInvalidate
}

func derivedKey(view, attr string) string { return view + "\x00" + attr }

// AddDerivedRule registers how a derived attribute is maintained.
func (m *ManagementDB) AddDerivedRule(r DerivedRule) error {
	if err := r.Validate(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	k := derivedKey(r.View, r.Attr)
	if _, dup := m.derived[k]; dup {
		return fmt.Errorf("rules: derived rule for %s.%s already registered", r.View, r.Attr)
	}
	m.derived[k] = r
	return nil
}

// DerivedRulesFor returns the rules of view whose inputs include attr —
// the rule set to fire when attr is updated (Section 4.1).
func (m *ManagementDB) DerivedRulesFor(view, attr string) []DerivedRule {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []DerivedRule
	for _, r := range m.derived {
		if r.View != view {
			continue
		}
		for _, in := range r.Inputs {
			if in == attr {
				out = append(out, r)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Attr < out[j].Attr })
	return out
}

// RegisterView records a view definition and creates its history. If an
// existing view (public, or owned by the same analyst) has the same
// fingerprint, RegisterView fails with ErrDuplicateView naming it — the
// "insure that an analyst does not recreate a view that has already been
// created" mechanism of Section 2.3.
func (m *ManagementDB) RegisterView(def ViewDef) error {
	if def.Name == "" {
		return fmt.Errorf("rules: view needs a name")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.views[def.Name]; dup {
		return fmt.Errorf("rules: view %q already registered", def.Name)
	}
	fp := def.Fingerprint()
	for _, v := range m.views {
		if (v.Public || v.Analyst == def.Analyst) && v.Fingerprint() == fp {
			return &ErrDuplicateView{Existing: v.Name, Analyst: v.Analyst}
		}
	}
	cp := def
	m.views[def.Name] = &cp
	m.histories[def.Name] = &History{}
	return nil
}

// ErrDuplicateView reports that an identical view already exists.
type ErrDuplicateView struct {
	Existing string
	Analyst  string
}

func (e *ErrDuplicateView) Error() string {
	return fmt.Sprintf("rules: an identical view %q already exists (analyst %s); reuse it instead of re-materializing", e.Existing, e.Analyst)
}

// View returns a registered view definition.
func (m *ManagementDB) View(name string) (ViewDef, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	v, ok := m.views[name]
	if !ok {
		return ViewDef{}, false
	}
	return *v, true
}

// Views lists registered view names in sorted order.
func (m *ManagementDB) Views() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.views))
	for n := range m.views {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Publish marks a view public so other analysts can find and reuse its
// cleaned data (Section 2.3 / 3.2).
func (m *ManagementDB) Publish(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.views[name]
	if !ok {
		return fmt.Errorf("rules: no view %q", name)
	}
	v.Public = true
	return nil
}

// HistoryOf returns the update history of a registered view.
func (m *ManagementDB) HistoryOf(view string) (*History, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	h, ok := m.histories[view]
	if !ok {
		return nil, fmt.Errorf("rules: no view %q", view)
	}
	return h, nil
}

// NextSeq returns a fresh virtual timestamp.
func (m *ManagementDB) NextSeq() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	return m.seq
}
