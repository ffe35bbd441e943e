// Package core assembles the statistical DBMS of Figure 3: a raw
// database on a sequential archive, several concrete views — each
// private to an analyst and paired with its own Summary Database — and a
// single Management Database holding the rules, view definitions and
// update histories that drive the whole system.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"statdb/internal/dataset"
	"statdb/internal/meta"
	"statdb/internal/obs"
	"statdb/internal/rules"
	"statdb/internal/tape"
	"statdb/internal/view"
)

// DBMS is the top-level system handle.
type DBMS struct {
	mu       sync.Mutex
	archive  *tape.Archive
	mdb      *rules.ManagementDB
	metaG    *meta.Graph
	views    map[string]*view.View // guarded by mu
	analysts map[string]*Analyst   // guarded by mu
	// parallelism sizes the execution pools of views built through this
	// DBMS: materialization pipelines and Summary Database recomputes.
	parallelism int // guarded by mu
	// metrics is the system-wide registry every view built through this
	// DBMS reports into; tracer collects per-query span trees. Summary
	// Database and storage counters live in per-view and per-pool
	// registries and are merged by Metrics().
	metrics *obs.Registry
	tracer  *obs.Tracer
	// profiles is the continuous-profile ring: the last N folded query
	// profiles per verb, merged on demand for `/profilez`.
	profiles *obs.ProfileRing
	// maxTicks/maxPages are the per-query resource ceilings executors
	// apply when they open a statement budget (0 = unlimited).
	maxTicks int64 // guarded by mu
	maxPages int64 // guarded by mu
	// gate is the admission layer executors pass every statement
	// through; nil (the default) admits everything immediately.
	gate *Gate // guarded by mu
}

// New creates a DBMS over an empty tape archive with default cost models.
func New() *DBMS {
	return NewWithArchive(tape.NewArchive(tape.DefaultCost()))
}

// NewWithArchive creates a DBMS over an existing raw archive.
func NewWithArchive(a *tape.Archive) *DBMS {
	reg := obs.NewRegistry()
	// Pre-register the canonical families so exported snapshots have the
	// same shape on every machine, regardless of which subsystems ran.
	obs.RegisterBaseline(reg)
	return &DBMS{
		archive:     a,
		mdb:         rules.NewManagementDB(),
		metaG:       meta.NewGraph(),
		views:       make(map[string]*view.View),
		analysts:    make(map[string]*Analyst),
		parallelism: runtime.GOMAXPROCS(0),
		metrics:     reg,
		tracer:      obs.NewTracer(),
		profiles:    obs.NewProfileRing(64),
	}
}

// MetricsRegistry exposes the DBMS-level registry (the one views report
// into). Most callers want Metrics(), the merged snapshot.
func (d *DBMS) MetricsRegistry() *obs.Registry { return d.metrics }

// Tracer exposes the system tracer collecting per-query span trees.
func (d *DBMS) Tracer() *obs.Tracer { return d.tracer }

// Profiles exposes the continuous-profile ring executors fold every
// statement's span tree into — the store behind /profilez.
func (d *DBMS) Profiles() *obs.ProfileRing { return d.profiles }

// Metrics returns the system-wide snapshot: the DBMS registry merged
// with every view's Summary Database registry and every stored view's
// buffer-pool registry, so the summary.* and storage.* families
// aggregate across views while each cache and pool keeps exact local
// accounting.
func (d *DBMS) Metrics() obs.Snapshot {
	s := d.metrics.Snapshot()
	for _, v := range d.viewsSnapshot() {
		s.Merge(v.Summary().Metrics().Snapshot())
		if reg := v.StoreMetrics(); reg != nil {
			s.Merge(reg.Snapshot())
		}
	}
	d.shardMetrics(&s)
	return s
}

// SetQueryBudget sets the per-query resource ceilings (cost-model ticks
// and buffer-pool page reads) that executors enforce on every
// statement. 0 disables a ceiling. The setting applies to statements
// started after the call.
func (d *DBMS) SetQueryBudget(maxTicks, maxPages int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if maxTicks < 0 {
		maxTicks = 0
	}
	if maxPages < 0 {
		maxPages = 0
	}
	d.maxTicks = maxTicks
	d.maxPages = maxPages
}

// QueryBudget returns the configured per-query ceilings (0 = unlimited).
func (d *DBMS) QueryBudget() (maxTicks, maxPages int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.maxTicks, d.maxPages
}

// SetGate installs the admission gate executors pass statements
// through. Nil removes gating. The setting applies to statements
// started after the call; statements already queued at the old gate
// drain through it.
func (d *DBMS) SetGate(g *Gate) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.gate = g
}

// Gate returns the installed admission gate (nil = ungated).
func (d *DBMS) Gate() *Gate {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.gate
}

// SetParallelism sets the worker count views built from here on use for
// column scans, aggregates and materialization. 1 forces the serial
// engine (today's exact behavior); n <= 0 restores the GOMAXPROCS
// default.
func (d *DBMS) SetParallelism(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	d.parallelism = n
}

// Parallelism returns the current engine width.
func (d *DBMS) Parallelism() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.parallelism
}

// Archive exposes the raw database.
func (d *DBMS) Archive() *tape.Archive { return d.archive }

// Management exposes the Management Database.
func (d *DBMS) Management() *rules.ManagementDB { return d.mdb }

// Meta exposes the metadata graph.
func (d *DBMS) Meta() *meta.Graph { return d.metaG }

// LoadRaw archives a data set as part of the raw database.
func (d *DBMS) LoadRaw(name string, ds *dataset.Dataset) error {
	return d.archive.Write(name, ds)
}

// Analyst returns the named analyst handle, creating it on first use.
func (d *DBMS) Analyst(name string) *Analyst {
	d.mu.Lock()
	defer d.mu.Unlock()
	if a, ok := d.analysts[name]; ok {
		return a
	}
	a := &Analyst{name: name, dbms: d}
	d.analysts[name] = a
	return a
}

func (d *DBMS) registerView(v *view.View) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.views[v.Name()] = v
}

// viewsSnapshot returns the registered views in name order without
// holding d.mu across per-view calls (lock order: DBMS before view).
func (d *DBMS) viewsSnapshot() []*view.View {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.views))
	for n := range d.views {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*view.View, 0, len(names))
	for _, n := range names {
		out = append(out, d.views[n])
	}
	return out
}

// RecoverReport aggregates store verification and recovery across every
// view with an attached store.
type RecoverReport struct {
	Views        map[string]view.RecoverReport
	PagesChecked int
	CorruptPages int
	Rebuilt      int // views whose stores were rebuilt from memory
}

func (r RecoverReport) String() string {
	return fmt.Sprintf("views=%d checked=%d corrupt=%d rebuilt=%d",
		len(r.Views), r.PagesChecked, r.CorruptPages, r.Rebuilt)
}

// Recover walks every view with an attached store, verifies its pages
// against their checksums, and rebuilds any damaged store from the
// in-memory view (the copy of record). Views without stores are
// skipped. Per-view failures are joined, not short-circuited, so one
// broken device does not block recovery of the rest.
//
//lint:allow test-only safety: the operator's verify-and-rebuild entry point over every stored view; no REPL verb drives it yet
func (d *DBMS) Recover() (RecoverReport, error) {
	rep := RecoverReport{Views: make(map[string]view.RecoverReport)}
	var errs []error
	for _, v := range d.viewsSnapshot() {
		if v.StoreBacking() == view.BackingMemory {
			continue
		}
		vr, err := v.RecoverStore()
		rep.Views[v.Name()] = vr
		rep.PagesChecked += vr.PagesChecked
		rep.CorruptPages += vr.CorruptPages
		if vr.Rebuilt {
			rep.Rebuilt++
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("view %s: %w", v.Name(), err))
		}
	}
	return rep, errors.Join(errs...)
}

// Analyst is one user of the system; views are private per analyst
// unless published.
type Analyst struct {
	name string
	dbms *DBMS
}

// Materialize starts a view materialization from the named raw file.
func (a *Analyst) Materialize(source string) *MaterializeBuilder {
	return &MaterializeBuilder{
		analyst: a,
		builder: view.NewBuilder(a.dbms.archive, a.dbms.mdb, source),
	}
}

// MaterializeBuilder wraps the view builder with the analyst identity.
type MaterializeBuilder struct {
	analyst *Analyst
	builder *view.Builder
}

// Builder exposes the underlying pipeline builder for chaining relational
// steps.
func (m *MaterializeBuilder) Builder() *view.Builder { return m.builder }

// Build materializes and registers the view, with the DBMS-wide engine
// width, metrics registry and tracer.
func (m *MaterializeBuilder) Build(name string) (*view.View, error) {
	d := m.analyst.dbms
	opts := view.Options{Parallelism: d.Parallelism(), Metrics: d.metrics, Tracer: d.tracer}
	v, err := m.builder.WithOptions(opts).Build(name, m.analyst.name)
	if err != nil {
		return nil, err
	}
	d.registerView(v)
	return v, nil
}

// AdoptDataset registers an in-memory data set (a sample, an aggregation
// result) as a new concrete view owned by the analyst. ops documents the
// derivation for the Management Database's duplicate detection.
func (a *Analyst) AdoptDataset(name string, ds *dataset.Dataset, source string, ops []string) (*view.View, error) {
	v, err := view.New(ds, a.dbms.mdb, rules.ViewDef{
		Name: name, Analyst: a.name, Source: source, Ops: ops,
	}, view.Options{
		Parallelism: a.dbms.Parallelism(),
		Metrics:     a.dbms.metrics,
		Tracer:      a.dbms.tracer,
	})
	if err != nil {
		return nil, err
	}
	a.dbms.registerView(v)
	return v, nil
}

// View fetches a view by name, enforcing the privacy rule of Section 3.2:
// a view is accessible to its owner, and to others only once published.
func (a *Analyst) View(name string) (*view.View, error) {
	a.dbms.mu.Lock()
	v, ok := a.dbms.views[name]
	a.dbms.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: no view %q", name)
	}
	def, _ := a.dbms.mdb.View(name)
	if def.Analyst != a.name && !def.Public {
		return nil, fmt.Errorf("core: view %q is private to analyst %s", name, def.Analyst)
	}
	return v, nil
}

// Publish makes the analyst's view visible to everyone — how the results
// of data editing are "made public" (Section 2.3).
func (a *Analyst) Publish(name string) error {
	def, ok := a.dbms.mdb.View(name)
	if !ok {
		return fmt.Errorf("core: no view %q", name)
	}
	if def.Analyst != a.name {
		return fmt.Errorf("core: view %q belongs to analyst %s", name, def.Analyst)
	}
	return a.dbms.mdb.Publish(name)
}

// MaterializeFromMeta turns a metadata navigation request into a view:
// the SUBJECT flow of Section 2.3 ("at the end of the session [the
// system] can generate requests to the DBMS for the view described by
// his path").
func (a *Analyst) MaterializeFromMeta(req meta.ViewRequest, name string) (*view.View, error) {
	if len(req.Attributes) != 1 {
		return nil, fmt.Errorf("core: meta request spans %d files; single-file requests only", len(req.Attributes))
	}
	for file, attrs := range req.Attributes {
		mb := a.Materialize(file)
		mb.builder.Project(attrs...)
		return mb.Build(name)
	}
	return nil, fmt.Errorf("core: empty meta request")
}
