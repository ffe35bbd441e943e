package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
)

// Attr is one key/value annotation on a span. First-occurrence order is
// preserved and repeated keys are last-write-wins, so renderings are
// deterministic and never show duplicates.
type Attr struct {
	Key, Value string
}

// A builds an attribute.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// AI builds an integer-valued attribute.
func AI(key string, v int64) Attr { return Attr{Key: key, Value: fmt.Sprintf("%d", v)} }

// Span is one node of a trace tree. Spans carry an explicit cost-model
// charge in virtual ticks (never wall time), so a rendered tree is the
// EXPLAIN-style account of where a query's budget went and is stable
// across machines. Spans are created through a Tracer and mutated only
// under its lock; a nil Span no-ops every method.
type Span struct {
	t        *Tracer
	name     string
	attrs    []Attr
	self     int64 // ticks charged directly to this span
	children []*Span
	parent   *Span
	start    int64 // tracer sequence number at Begin
	end      int64 // tracer sequence number at End (0 while open)
}

// Name returns the span name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SetAttr sets an attribute: an existing key keeps its position but
// takes the new value (last write wins), a new key appends. Layers that
// update the same key per attempt — retry counts, health — therefore
// render one attribute, not a duplicate per write.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// Attrs returns a copy of the span's attributes.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Charge adds n virtual ticks to the span's own cost.
func (s *Span) Charge(n int64) {
	if s == nil || n == 0 {
		return
	}
	s.t.mu.Lock()
	s.self += n
	b := s.t.budget
	s.t.mu.Unlock()
	b.ChargeTicks(n)
}

// Self returns the ticks charged directly to this span.
func (s *Span) Self() int64 {
	if s == nil {
		return 0
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.self
}

// Children returns a copy of the child list.
//
//lint:allow test-only test inspection surface: the query and shard suites assert span-tree structure through it
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Total returns the span's own charge plus every descendant's — the
// invariant the EXPLAIN report rests on: a parent's total is exactly the
// sum of the self charges in its subtree.
func (s *Span) Total() int64 {
	if s == nil {
		return 0
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.total()
}

func (s *Span) total() int64 {
	n := s.self
	for _, c := range s.children {
		n += c.total()
	}
	return n
}

// End closes the span, popping it (and any still-open descendants) off
// the tracer's stack. Ending a root span delivers the finished tree to
// the tracer's ring and sink.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.end(s)
}

// Sink receives completed root spans.
type Sink interface {
	Emit(root *Span)
}

// RingSink keeps the last N completed roots in memory — the test sink.
type RingSink struct {
	mu    sync.Mutex
	cap   int
	roots []*Span
}

// NewRingSink creates a ring keeping the n most recent roots.
func NewRingSink(n int) *RingSink {
	if n < 1 {
		n = 1
	}
	return &RingSink{cap: n}
}

// Emit implements Sink.
func (r *RingSink) Emit(root *Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.roots = append(r.roots, root)
	if len(r.roots) > r.cap {
		r.roots = append([]*Span(nil), r.roots[len(r.roots)-r.cap:]...)
	}
}

// Roots returns the retained roots, oldest first.
func (r *RingSink) Roots() []*Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Span(nil), r.roots...)
}

// TextSink renders each completed root as a span tree to W — the
// CLI-style exporter.
type TextSink struct {
	W io.Writer
}

// Emit implements Sink.
func (t TextSink) Emit(root *Span) { _ = WriteTree(t.W, root) } //lint:allow error-flow sink writes are best-effort by contract

// Tracer builds span trees. Begin pushes onto an internal stack, so
// nesting follows call structure without threading span handles through
// every layer; End pops. The tracer is mutex-guarded and safe under the
// race detector, but the stack discipline assumes queries are issued
// one at a time per tracer (the executor model) — spans begun from
// concurrently running queries on one tracer attach to whichever span
// is innermost, which degrades attribution, never safety. Goroutine-side
// work inside one query (shard scatter workers, pool range workers)
// gets its own child tracer via Adopt and is stitched back under the
// query's span tree by Join, so fan-out is attributed without sharing
// a span stack across goroutines.
//
// A nil Tracer hands out nil spans: tracing disabled.
type Tracer struct {
	mu    sync.Mutex
	seq   int64
	stack []*Span
	ring  *RingSink
	sink  Sink
	// budget, when set, meters every tick charged through this tracer
	// (and page reads via ChargePages) against the current query's
	// resource ceiling. Installed per query by the executor, like the
	// span stack it follows the one-query-at-a-time discipline.
	budget *Budget
	// adoptive marks a child tracer made by Adopt: completed roots are
	// buffered in done (instead of being emitted) until Join splices
	// them under adoptive on the parent tracer.
	adoptive *Span
	done     []*Span
}

// NewTracer creates a tracer retaining the 16 most recent root trees.
func NewTracer() *Tracer {
	return &Tracer{ring: NewRingSink(16)}
}

// SetSink attaches an additional sink receiving every completed root.
//
//lint:allow test-only test sink: suites attach a RingSink to capture completed span trees
func (t *Tracer) SetSink(s Sink) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sink = s
}

// SetBudget installs (or, with nil, removes) the budget metering charges
// from here on. One query at a time per tracer, like the span stack.
func (t *Tracer) SetBudget(b *Budget) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.budget = b
	t.mu.Unlock()
}

// ChargePages records page reads against the installed budget. Pages are
// budget-only: they never appear on spans, which account ticks.
func (t *Tracer) ChargePages(n int64) {
	if t == nil || n == 0 {
		return
	}
	t.mu.Lock()
	b := t.budget
	t.mu.Unlock()
	b.ChargePages(n)
}

// BudgetErr reports the installed budget's latched error, nil when no
// budget is installed or nothing has been exceeded. Layers that cannot
// return errors from their charge sites (Sources, workers) rely on the
// next error-capable layer checking this.
func (t *Tracer) BudgetErr() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	b := t.budget
	t.mu.Unlock()
	return b.Err()
}

// Begin opens a span as a child of the innermost open span (or as a new
// root) and returns it. The caller must End it. Repeated attribute keys
// collapse last-write-wins, matching SetAttr's contract.
func (t *Tracer) Begin(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	s := &Span{t: t, name: name, attrs: dedupeAttrs(attrs), start: t.seq}
	if n := len(t.stack); n > 0 {
		s.parent = t.stack[n-1]
		s.parent.children = append(s.parent.children, s)
	}
	t.stack = append(t.stack, s)
	return s
}

// dedupeAttrs collapses repeated keys last-write-wins, keeping each
// key's first-occurrence position. The common no-duplicate case returns
// the slice unchanged.
func dedupeAttrs(attrs []Attr) []Attr {
	for i := 1; i < len(attrs); i++ {
		for j := 0; j < i; j++ {
			if attrs[j].Key == attrs[i].Key {
				out := append([]Attr(nil), attrs[:i]...)
				for _, a := range attrs[i:] {
					dup := false
					for k := range out {
						if out[k].Key == a.Key {
							out[k].Value = a.Value
							dup = true
							break
						}
					}
					if !dup {
						out = append(out, a)
					}
				}
				return out
			}
		}
	}
	return attrs
}

// Adopt returns a child tracer bound to parent, the span-stitching
// handoff for goroutine-side work. The child has its own stack and
// lock — workers Begin/Charge/End on it without contending with (or
// racing against) the owning query's tracer — but shares the parent's
// installed Budget, so worker ticks and pages are metered against the
// query's ceiling live. Roots completed on the child are buffered, not
// emitted; the coordinator calls Join after the goroutine finishes to
// splice them under parent. Calling Adopt once per goroutine (or per
// deterministic work unit) and Joining in a fixed order is what keeps
// stitched trees bit-identical regardless of scheduling.
//
// A nil tracer or nil parent yields a nil child: tracing stays
// disabled through the handoff.
func (t *Tracer) Adopt(parent *Span) *Tracer {
	if t == nil || parent == nil {
		return nil
	}
	t.mu.Lock()
	b := t.budget
	t.mu.Unlock()
	return &Tracer{budget: b, adoptive: parent}
}

// Join splices the child tracer's completed roots — in the order they
// ended — under the adoptive parent span, re-owning the subtree so the
// parent's Total and WriteTree account the stitched work. Only the
// coordinator goroutine may call Join, after the adopted work has
// finished; spans still open on the child are dropped, never spliced
// half-built. Join on a non-adopted or nil tracer is a no-op.
func (t *Tracer) Join() {
	if t == nil || t.adoptive == nil {
		return
	}
	t.mu.Lock()
	roots := t.done
	t.done = nil
	t.mu.Unlock()
	if len(roots) == 0 {
		return
	}
	p := t.adoptive
	pt := p.t
	pt.mu.Lock()
	defer pt.mu.Unlock()
	for _, r := range roots {
		r.parent = p
		p.children = append(p.children, r)
		reown(r, pt)
	}
}

// reown points every span in s's subtree at tracer t; called under
// t.mu by Join.
func reown(s *Span, t *Tracer) {
	s.t = t
	for _, c := range s.children {
		reown(c, t)
	}
}

// Charge adds n ticks to the innermost open span (span attribution is
// dropped when none is open) and to the installed budget. Layers that do
// not hold a span handle (the view's column reader, for instance) charge
// through this.
func (t *Tracer) Charge(n int64) {
	if t == nil || n == 0 {
		return
	}
	t.mu.Lock()
	b := t.budget
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].self += n
	}
	t.mu.Unlock()
	// The work happened whether or not a span was open to attribute it
	// to, so the budget is charged regardless.
	b.ChargeTicks(n)
}

// end closes s; used by Span.End.
func (t *Tracer) end(s *Span) {
	t.mu.Lock()
	var emit *Span
	for i := len(t.stack) - 1; i >= 0; i-- {
		top := t.stack[i]
		t.seq++
		top.end = t.seq
		t.stack = t.stack[:i]
		if top == s {
			if top.parent == nil {
				emit = top
			}
			break
		}
	}
	if emit != nil && t.adoptive != nil {
		// Adopted tracer: buffer the root for Join instead of emitting.
		t.done = append(t.done, emit)
		emit = nil
	}
	sink := t.sink
	ring := t.ring
	t.mu.Unlock()
	if emit == nil {
		return
	}
	if ring != nil {
		ring.Emit(emit)
	}
	if sink != nil {
		sink.Emit(emit)
	}
}

// Recent returns the most recently completed root trees, oldest first.
func (t *Tracer) Recent() []*Span {
	if t == nil {
		return nil
	}
	return t.ring.Roots()
}

// WriteTree renders a completed span tree as indented text with each
// node's own charge and cumulative subtree total, then the tree total —
// the EXPLAIN-style profile:
//
//	query: self=0 total=694
//	  view.compute [fn=mean attr=SALARY]: self=0 total=694
//	    summary.scalar [fn=mean attr=SALARY outcome=miss]: self=0 total=694
//	      scan [rows=10240]: self=330 total=330
//	      fold [fn=mean engine=parallel]: self=364 total=364
//	total charge = 694 ticks
func WriteTree(w io.Writer, root *Span) error {
	if root == nil {
		_, err := fmt.Fprintln(w, "(no trace)")
		return err
	}
	root.t.mu.Lock()
	defer root.t.mu.Unlock()
	if err := writeSpan(w, root, 0); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "total charge = %d ticks\n", root.total())
	return err
}

func writeSpan(w io.Writer, s *Span, depth int) error {
	var b strings.Builder
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(s.name)
	if len(s.attrs) > 0 {
		b.WriteString(" [")
		for i, a := range s.attrs {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(a.Key)
			b.WriteByte('=')
			b.WriteString(a.Value)
		}
		b.WriteByte(']')
	}
	fmt.Fprintf(&b, ": self=%d total=%d", s.self, s.total())
	if _, err := fmt.Fprintln(w, b.String()); err != nil {
		return err
	}
	for _, c := range s.children {
		if err := writeSpan(w, c, depth+1); err != nil {
			return err
		}
	}
	return nil
}
