// Package obs is the system's observability layer: a dependency-free
// metrics registry (atomic counters, gauges, and fixed-bucket histograms
// whose output is deterministic under a deterministic workload) plus
// lightweight trace spans with explicit cost-model charges (trace.go).
//
// The paper's economic argument (Sections 3-4) — that the Summary
// Database and the incremental-recomputation rules only pay off when
// cache hits, recomputation costs and storage I/O are measurable — is
// made operational here: every layer of the DBMS registers its counters
// under a canonical dotted name (names.go) so a running system can be
// read the same way the experiment tables are.
//
// Design rules:
//
//   - Handles are nil-safe: a nil *Counter, *Gauge, *Histogram, *Tracer
//     or *Span no-ops on every method, so instrumentation sites never
//     branch on "is observability wired?". A nil *Registry hands out nil
//     handles — it is the no-op registry (experiment E15 measures the
//     cost of enabled vs no-op instrumentation).
//   - Values are int64 virtual quantities (counts, ticks), never wall
//     time, so snapshots of a deterministic workload are bit-identical
//     across machines and golden-testable.
//   - Snapshots merge: per-component registries (each buffer pool keeps
//     its own, so per-pool accounting stays exact) roll up into one
//     system-wide view via Snapshot.Merge.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; a nil Counter discards updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can move both ways. A nil Gauge discards
// updates.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets. Bounds are inclusive
// upper limits in ascending order; one overflow bucket catches the rest.
// Fixed bounds keep the text export deterministic for a deterministic
// workload. A nil Histogram discards observations.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1, last is overflow
	sum    atomic.Int64
	n      atomic.Int64
}

// NewHistogram builds a standalone histogram (registries usually hand
// them out via Registry.Histogram).
func NewHistogram(bounds []int64) *Histogram {
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.n.Add(1)
	h.sum.Add(v)
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[len(h.bounds)].Add(1)
}

// HistValue is a point-in-time copy of a histogram.
type HistValue struct {
	Bounds []int64 // inclusive upper limits, ascending
	Counts []int64 // len(Bounds)+1, last is overflow
	Sum    int64
	Count  int64
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the recorded
// observations by linear interpolation inside the fixed buckets — the
// same estimator Prometheus applies to cumulative buckets. The first
// bucket interpolates from 0; ranks landing in the overflow bucket
// report the largest finite bound (there is no upper edge to
// interpolate toward). ok is false when the histogram is empty.
func (hv HistValue) Quantile(q float64) (v float64, ok bool) {
	if hv.Count <= 0 {
		return 0, false
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(hv.Count)
	var cum float64
	for i, c := range hv.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= len(hv.Bounds) {
			break // overflow bucket
		}
		lower := 0.0
		if i > 0 {
			lower = float64(hv.Bounds[i-1])
		}
		upper := float64(hv.Bounds[i])
		return lower + (upper-lower)*(rank-prev)/float64(c), true
	}
	if len(hv.Bounds) > 0 {
		return float64(hv.Bounds[len(hv.Bounds)-1]), true
	}
	// Degenerate single-bucket histogram: the mean is the only estimate.
	return float64(hv.Sum) / float64(hv.Count), true
}

func (h *Histogram) value() HistValue {
	hv := HistValue{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Sum:    h.sum.Load(),
		Count:  h.n.Load(),
	}
	for i := range h.counts {
		hv.Counts[i] = h.counts[i].Load()
	}
	return hv
}

// Registry hands out named metric handles, get-or-create. Safe for
// concurrent use; handle lookups take a mutex, so hot paths should cache
// handles rather than re-resolve names. A nil Registry hands out nil
// (no-op) handles — the disabled configuration.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with bounds on
// first use. Later calls return the existing histogram regardless of
// bounds — bucket boundaries are fixed at registration.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of a registry (or a merge of
// several). Maps are keyed by metric name.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistValue
}

// NewSnapshot returns an empty snapshot ready to Merge into.
func NewSnapshot() Snapshot {
	return Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistValue),
	}
}

// Snapshot copies the registry's current values. A nil registry yields
// an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := NewSnapshot()
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.value()
	}
	return s
}

// Merge folds o into s: counters, gauge values and histogram buckets
// add; a histogram merging into different bounds keeps s's buckets and
// adds only count and sum.
func (s *Snapshot) Merge(o Snapshot) {
	for name, v := range o.Counters {
		s.Counters[name] += v
	}
	for name, v := range o.Gauges {
		s.Gauges[name] += v
	}
	for name, hv := range o.Histograms {
		cur, ok := s.Histograms[name]
		if !ok {
			s.Histograms[name] = HistValue{
				Bounds: append([]int64(nil), hv.Bounds...),
				Counts: append([]int64(nil), hv.Counts...),
				Sum:    hv.Sum,
				Count:  hv.Count,
			}
			continue
		}
		cur.Sum += hv.Sum
		cur.Count += hv.Count
		if len(cur.Counts) == len(hv.Counts) {
			for i := range cur.Counts {
				cur.Counts[i] += hv.Counts[i]
			}
		}
		s.Histograms[name] = cur
	}
}

// WriteText renders the snapshot in a stable line-oriented format —
// one metric per line, sorted by kind then name — suitable for golden
// tests and the `statdb stats` command:
//
//	counter summary.hits 12
//	gauge exec.inflight 0
//	histogram query.ticks.compute count=2 sum=5396 le100=1 le1000=0 le10000=1 le100000=0 le1000000=0 inf=0 p50=100 p90=8200 p99=9820
//
// Non-empty histograms carry interpolated p50/p90/p99 estimates (see
// HistValue.Quantile).
func (s Snapshot) WriteText(w io.Writer) error {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", n, s.Counters[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "gauge %s %d\n", n, s.Gauges[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		hv := s.Histograms[n]
		var b strings.Builder
		fmt.Fprintf(&b, "histogram %s count=%d sum=%d", n, hv.Count, hv.Sum)
		for i, bound := range hv.Bounds {
			fmt.Fprintf(&b, " le%d=%d", bound, hv.Counts[i])
		}
		if len(hv.Counts) > 0 {
			fmt.Fprintf(&b, " inf=%d", hv.Counts[len(hv.Counts)-1])
		}
		if p50, ok := hv.Quantile(0.50); ok {
			p90, _ := hv.Quantile(0.90)
			p99, _ := hv.Quantile(0.99)
			fmt.Fprintf(&b, " p50=%g p90=%g p99=%g", p50, p90, p99)
		}
		if _, err := fmt.Fprintln(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}
