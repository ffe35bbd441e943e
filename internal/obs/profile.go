package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"
)

// Profile is a span tree folded into per-site statistics — the
// deterministic analogue of a CPU profile, measured in cost-model ticks
// instead of samples. A site is the ";"-joined path of span names from
// the root ("query;view.compute;summary.scalar;scan"), so structurally
// identical queries fold to identical site sets. Profiles follow the
// exec partials doctrine: FoldSpan produces a mergeable partial and
// Merge is commutative integer sums, so a merged profile is
// bit-identical regardless of arrival order.
type Profile struct {
	Queries int64                 `json:"queries"`
	Ticks   int64                 `json:"ticks"`
	Sites   map[string]*SiteStats `json:"sites"`
}

// SiteStats accumulates one site path's charges across the folded
// queries.
type SiteStats struct {
	Calls int64 `json:"calls"`
	Self  int64 `json:"self"`  // ticks charged directly at this site
	Total int64 `json:"total"` // self plus every descendant's
	Pages int64 `json:"pages"` // sum of "pages" attrs at this site
	Rows  int64 `json:"rows"`  // sum of "rows" attrs at this site
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{Sites: make(map[string]*SiteStats)}
}

// FoldSpan folds one completed span tree into a fresh single-query
// profile. The fold walks under the owning tracer's lock, so it is safe
// against late attribute writes; the profile's Ticks equals the root's
// Total exactly — the invariant E18 asserts.
func FoldSpan(root *Span) *Profile {
	p := NewProfile()
	if root == nil {
		return p
	}
	root.t.mu.Lock()
	defer root.t.mu.Unlock()
	p.Queries = 1
	p.Ticks = root.total()
	foldSite(p, root, "")
	return p
}

// foldSite records s at path prefix+name and recurses; called under the
// tracer lock.
func foldSite(p *Profile, s *Span, prefix string) {
	path := s.name
	if prefix != "" {
		path = prefix + ";" + s.name
	}
	st := p.Sites[path]
	if st == nil {
		st = &SiteStats{}
		p.Sites[path] = st
	}
	st.Calls++
	st.Self += s.self
	st.Total += s.total()
	for _, a := range s.attrs {
		switch a.Key {
		case "pages":
			if v, err := strconv.ParseInt(a.Value, 10, 64); err == nil {
				st.Pages += v
			}
		case "rows":
			if v, err := strconv.ParseInt(a.Value, 10, 64); err == nil {
				st.Rows += v
			}
		}
	}
	for _, c := range s.children {
		foldSite(p, c, path)
	}
}

// RowsAt sums the rows recorded at every site whose innermost span is
// named leaf, wherever in the tree it sits.
func (p *Profile) RowsAt(leaf string) int64 {
	var n int64
	nested := ";" + leaf
	for path, st := range p.Sites {
		if path == leaf || strings.HasSuffix(path, nested) {
			n += st.Rows
		}
	}
	return n
}

// Merge folds o into p. Sums of integers commute, so any merge order
// over the same partials yields the same profile.
func (p *Profile) Merge(o *Profile) {
	if p == nil || o == nil {
		return
	}
	p.Queries += o.Queries
	p.Ticks += o.Ticks
	if p.Sites == nil {
		p.Sites = make(map[string]*SiteStats, len(o.Sites))
	}
	for path, os := range o.Sites {
		st := p.Sites[path]
		if st == nil {
			st = &SiteStats{}
			p.Sites[path] = st
		}
		st.Calls += os.Calls
		st.Self += os.Self
		st.Total += os.Total
		st.Pages += os.Pages
		st.Rows += os.Rows
	}
}

// sitePaths returns the site paths ordered by self ticks descending,
// ties broken by path — the top-N ranking.
func (p *Profile) sitePaths() []string {
	paths := make([]string, 0, len(p.Sites))
	for path := range p.Sites {
		paths = append(paths, path)
	}
	sort.Slice(paths, func(i, j int) bool {
		a, b := p.Sites[paths[i]], p.Sites[paths[j]]
		if a.Self != b.Self {
			return a.Self > b.Self
		}
		return paths[i] < paths[j]
	})
	return paths
}

// WriteTop renders the n hottest sites by self ticks as an aligned
// table, then the profile total. n <= 0 means every site.
func (p *Profile) WriteTop(w io.Writer, n int) error {
	if p == nil || len(p.Sites) == 0 {
		_, err := fmt.Fprintln(w, "(empty profile)")
		return err
	}
	paths := p.sitePaths()
	if n > 0 && n < len(paths) {
		paths = paths[:n]
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "self\ttotal\tcalls\tpages\trows\tsite")
	for _, path := range paths {
		st := p.Sites[path]
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%s\n",
			st.Self, st.Total, st.Calls, st.Pages, st.Rows, path)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "profile: %d queries, %d ticks\n", p.Queries, p.Ticks)
	return err
}

// ProfileRing is the continuous profiler's store: per query verb, the
// last N single-query profiles. Merged folds a verb's retained window
// into one cumulative profile — what /profilez serves. The ring is
// bounded (N profiles per verb, each a bounded fold of one span tree),
// so a long-running server's profiler memory is constant. A nil ring
// no-ops, like the other obs handles.
type ProfileRing struct {
	mu    sync.Mutex
	cap   int
	verbs map[string][]*Profile
}

// NewProfileRing creates a ring keeping the n most recent profiles per
// verb.
func NewProfileRing(n int) *ProfileRing {
	if n < 1 {
		n = 1
	}
	return &ProfileRing{cap: n, verbs: make(map[string][]*Profile)}
}

// Add retains p as verb's most recent profile, evicting the oldest
// beyond the ring's capacity.
func (r *ProfileRing) Add(verb string, p *Profile) {
	if r == nil || p == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ps := append(r.verbs[verb], p)
	if len(ps) > r.cap {
		ps = append([]*Profile(nil), ps[len(ps)-r.cap:]...)
	}
	r.verbs[verb] = ps
}

// Verbs lists the verbs with retained profiles, sorted.
func (r *ProfileRing) Verbs() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.verbs))
	for v := range r.verbs {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Merged folds verb's retained profiles (oldest first — though order
// cannot matter, by the merge doctrine) into one cumulative profile.
func (r *ProfileRing) Merged(verb string) *Profile {
	if r == nil {
		return NewProfile()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := NewProfile()
	for _, p := range r.verbs[verb] {
		out.Merge(p)
	}
	return out
}

// WriteText renders every verb's merged profile as top tables — the
// /profilez text body.
func (r *ProfileRing) WriteText(w io.Writer, topN int) error {
	verbs := r.Verbs()
	if len(verbs) == 0 {
		_, err := fmt.Fprintln(w, "(no profiles)")
		return err
	}
	for _, v := range verbs {
		if _, err := fmt.Fprintf(w, "== verb %s ==\n", v); err != nil {
			return err
		}
		if err := r.Merged(v).WriteTop(w, topN); err != nil {
			return err
		}
	}
	return nil
}
