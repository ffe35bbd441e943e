package view

import (
	"fmt"
	"strings"

	"statdb/internal/dataset"
	"statdb/internal/exec"
	"statdb/internal/obs"
	"statdb/internal/relalg"
	"statdb/internal/rules"
	"statdb/internal/tape"
)

// Builder materializes a concrete view from a raw archive file by a
// pipeline of relational operations (Section 2.3). Every step is recorded
// textually so the Management Database can fingerprint the derivation and
// reject wasteful re-materializations.
type Builder struct {
	archive *tape.Archive
	mdb     *rules.ManagementDB
	source  string
	steps   []pipeStep
	ops     []string
	opts    Options
}

// pipeStep is one pipeline stage. isSelect marks the one stage the pool
// evaluates, so materialize can state its engine on the span.
type pipeStep struct {
	run      func(*dataset.Dataset) (*dataset.Dataset, error)
	isSelect bool
}

// NewBuilder starts a materialization from the named raw file.
func NewBuilder(archive *tape.Archive, mdb *rules.ManagementDB, source string) *Builder {
	return &Builder{archive: archive, mdb: mdb, source: source}
}

// WithOptions sets the view construction options.
func (b *Builder) WithOptions(opts Options) *Builder {
	b.opts = opts
	return b
}

// execPool returns the pool the pipeline steps run through, or nil for
// serial materialization. Steps consult it at Build time (not when the
// step is chained) because core applies WithOptions after the pipeline
// is assembled.
func (b *Builder) execPool() *exec.Pool {
	if b.opts.Parallelism > 1 {
		return exec.New(b.opts.Parallelism).WithMetrics(b.opts.Metrics)
	}
	return nil
}

// poolEngine names how p evaluates a default-chunked step over rows rows
// — the run exec.Pool counts as exec.runs.serial or exec.runs.parallel —
// or "" when no pool run happens: without a pool relalg takes the serial
// operator, and an empty input has nothing to run.
func poolEngine(p *exec.Pool, rows int) string {
	if p == nil {
		return ""
	}
	switch n := p.Fanout(len(exec.Chunks(rows, 0))); {
	case n > 1:
		return "parallel"
	case n == 1:
		return "serial"
	}
	return ""
}

// Select keeps rows satisfying pred. With Parallelism > 1 the rows of
// the materialized tape blocks are filtered through the execution pool
// (chunk-partitioned evaluation, order-preserving emit — the same rows
// as the serial operator).
func (b *Builder) Select(pred relalg.Predicate) *Builder {
	b.steps = append(b.steps, pipeStep{
		run: func(ds *dataset.Dataset) (*dataset.Dataset, error) {
			return relalg.SelectWith(b.execPool(), ds, pred, 0)
		},
		isSelect: true,
	})
	b.ops = append(b.ops, "select "+pred.String())
	return b
}

// Project keeps only the named attributes.
func (b *Builder) Project(names ...string) *Builder {
	b.steps = append(b.steps, pipeStep{run: func(ds *dataset.Dataset) (*dataset.Dataset, error) {
		return relalg.Project(ds, names...)
	}})
	b.ops = append(b.ops, "project "+strings.Join(names, ","))
	return b
}

// Decode replaces a coded attribute with its label through its code table.
func (b *Builder) Decode(attr string) *Builder {
	b.steps = append(b.steps, pipeStep{run: func(ds *dataset.Dataset) (*dataset.Dataset, error) {
		return relalg.Decode(ds, attr)
	}})
	b.ops = append(b.ops, "decode "+attr)
	return b
}

// GroupBy aggregates over the key attributes.
func (b *Builder) GroupBy(keys []string, aggs []relalg.Agg) *Builder {
	b.steps = append(b.steps, pipeStep{run: func(ds *dataset.Dataset) (*dataset.Dataset, error) {
		return relalg.GroupBy(ds, keys, aggs)
	}})
	desc := "group by " + strings.Join(keys, ",")
	for _, a := range aggs {
		desc += fmt.Sprintf(" %s(%s)", a.Func, a.Attr)
	}
	b.ops = append(b.ops, desc)
	return b
}

// Sort orders the rows.
func (b *Builder) Sort(keys ...relalg.SortKey) *Builder {
	b.steps = append(b.steps, pipeStep{run: func(ds *dataset.Dataset) (*dataset.Dataset, error) {
		return relalg.Sort(ds, keys...)
	}})
	desc := "sort"
	for _, k := range keys {
		desc += " " + k.Attr
		if k.Desc {
			desc += " desc"
		}
	}
	b.ops = append(b.ops, desc)
	return b
}

// Ops returns the recorded derivation steps.
func (b *Builder) Ops() []string { return append([]string(nil), b.ops...) }

// Build reads the raw file from tape, applies the pipeline, and registers
// the result as analyst's concrete view called name. The expensive tape
// pass happens exactly once; afterwards the analyst works entirely
// against the materialized copy.
func (b *Builder) Build(name, analyst string) (*View, error) {
	def := rules.ViewDef{Name: name, Analyst: analyst, Source: b.source, Ops: b.Ops()}
	// Duplicate detection happens before the tape is touched, so a
	// rejected re-materialization costs nothing.
	ds, err := b.materialize(def)
	if err != nil {
		return nil, err
	}
	return New(ds, b.mdb, def, b.opts)
}

// materialize runs the pipeline under a "view.materialize" span. Select
// is the only step evaluated through the pool, so that is the step whose
// engine the span states.
func (b *Builder) materialize(def rules.ViewDef) (*dataset.Dataset, error) {
	sp := b.opts.Tracer.Begin("view.materialize", obs.A("source", b.source))
	defer sp.End()
	// Probe for duplicates first using a dry registration: RegisterView
	// both checks and records, so check manually via the fingerprint of
	// existing registered views.
	for _, existing := range b.mdb.Views() {
		v, _ := b.mdb.View(existing)
		if (v.Public || v.Analyst == def.Analyst) && v.Fingerprint() == def.Fingerprint() {
			return nil, &rules.ErrDuplicateView{Existing: v.Name, Analyst: v.Analyst}
		}
	}
	ds, err := b.archive.Materialize(b.source)
	if err != nil {
		return nil, err
	}
	for i, st := range b.steps {
		in := ds.Rows()
		ds, err = st.run(ds)
		if err != nil {
			return nil, fmt.Errorf("view: materialization step %d (%s): %w", i, b.ops[i], err)
		}
		if st.isSelect {
			if eng := poolEngine(b.execPool(), in); eng != "" {
				sp.SetAttr("engine", eng)
			}
		}
	}
	return ds, nil
}
