package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestSpanTreeChargesSum(t *testing.T) {
	tr := NewTracer()
	q := tr.Begin("query", A("stmt", "compute"))
	q.Charge(3)
	scan := tr.Begin("scan")
	scan.Charge(40)
	scan.End()
	fold := tr.Begin("fold", A("engine", "serial"))
	fold.Charge(7)
	inner := tr.Begin("merge")
	inner.Charge(2)
	inner.End()
	fold.End()
	q.End()

	if got, want := q.Total(), int64(3+40+7+2); got != want {
		t.Errorf("total = %d, want %d", got, want)
	}
	// The invariant the EXPLAIN report rests on: the root total equals
	// the sum of every node's self charge.
	var sum int64
	var walk func(s *Span)
	walk = func(s *Span) {
		sum += s.Node().Self
		for _, c := range s.Node().Children {
			walk(c)
		}
	}
	walk(q)
	if sum != q.Total() {
		t.Errorf("self sum %d != root total %d", sum, q.Total())
	}
	roots := tr.Recent()
	if len(roots) != 1 || roots[0] != q {
		t.Errorf("ring roots = %v", roots)
	}
}

func TestWriteTreeRendering(t *testing.T) {
	tr := NewTracer()
	q := tr.Begin("query")
	s := tr.Begin("scan", AI("rows", 8))
	s.Charge(16)
	s.End()
	f := tr.Begin("fold", A("engine", "serial"))
	f.Charge(8)
	f.End()
	q.End()

	var b strings.Builder
	if err := WriteTree(&b, q); err != nil {
		t.Fatal(err)
	}
	want := "query: self=0 total=24\n" +
		"  scan [rows=8]: self=16 total=16\n" +
		"  fold [engine=serial]: self=8 total=8\n" +
		"total charge = 24 ticks\n"
	if b.String() != want {
		t.Errorf("tree:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestTracerChargeInnermost(t *testing.T) {
	tr := NewTracer()
	tr.Charge(99) // no open span: dropped
	a := tr.Begin("a")
	b := tr.Begin("b")
	tr.Charge(5)
	b.End()
	tr.Charge(2)
	a.End()
	if got := b.Node().Self; got != 5 {
		t.Errorf("b self = %d, want 5", got)
	}
	if got := a.Node().Self; got != 2 {
		t.Errorf("a self = %d, want 2", got)
	}
}

func TestEndPopsAbandonedChildren(t *testing.T) {
	tr := NewTracer()
	root := tr.Begin("root")
	_ = tr.Begin("leaked") // never ended directly
	root.End()
	// The stack must be clean: a new Begin starts a fresh root.
	next := tr.Begin("next")
	next.End()
	roots := tr.Recent()
	if len(roots) != 2 || roots[1].Node().Name != "next" {
		t.Fatalf("roots = %d", len(roots))
	}
}

// TestRingSinkWraparound pushes several multiples of the capacity
// through the ring and checks the window slides correctly — including
// the degenerate capacity-1 ring that NewRingSink clamps to.
func TestRingSinkWraparound(t *testing.T) {
	tr := NewTracer()
	mk := func(n int64) *Span {
		sp := tr.Begin("q")
		sp.Charge(n)
		sp.End()
		return sp
	}
	ring := NewRingSink(3)
	for i := int64(0); i < 10; i++ {
		ring.Emit(mk(i))
	}
	roots := ring.Roots()
	if len(roots) != 3 {
		t.Fatalf("ring kept %d, want 3", len(roots))
	}
	for i, want := range []int64{7, 8, 9} {
		if roots[i].Node().Self != want {
			t.Errorf("root %d self = %d, want %d", i, roots[i].Node().Self, want)
		}
	}
	// Roots() returns a copy: mutating it must not corrupt the ring.
	roots[0] = nil
	if ring.Roots()[0] == nil {
		t.Error("Roots() aliases ring storage")
	}

	one := NewRingSink(0) // clamped to 1
	for i := int64(0); i < 4; i++ {
		one.Emit(mk(100 + i))
	}
	if rs := one.Roots(); len(rs) != 1 || rs[0].Node().Self != 103 {
		t.Errorf("cap-1 ring kept wrong root")
	}
}

// TestAdoptJoinStitchesDeterministically runs scatter-style workers on
// adopted child tracers under arbitrary scheduling and checks the
// coordinator's in-order Joins always produce the same stitched tree:
// one child per worker in join order, every worker tick conserved in
// the root total, and the shared budget metered live.
func TestAdoptJoinStitchesDeterministically(t *testing.T) {
	render := func() string {
		tr := NewTracer()
		budget := NewBudget(0, 0)
		tr.SetBudget(budget)
		root := tr.Begin("query")
		scatter := tr.Begin("shard.scatter")
		adopted := make([]*Tracer, 4)
		for i := range adopted {
			adopted[i] = tr.Adopt(scatter)
		}
		var wg sync.WaitGroup
		for i := range adopted {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sp := adopted[i].Begin("shard" + string(rune('0'+i)))
				sub := adopted[i].Begin("range")
				sub.Charge(int64(i))
				sub.End()
				sp.Charge(10 * int64(i+1))
				sp.End()
			}(i)
		}
		wg.Wait()
		for _, ad := range adopted {
			ad.Join()
		}
		scatter.End()
		root.End()
		if got, want := root.Total(), int64(10+20+30+40+0+1+2+3); got != want {
			t.Fatalf("root total = %d, want %d", got, want)
		}
		// Worker charges flowed through the shared budget as they happened.
		if used, _ := budget.Used(); used != root.Total() {
			t.Fatalf("budget used = %d, want %d", used, root.Total())
		}
		var b strings.Builder
		if err := WriteTree(&b, root); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first := render()
	for i := 0; i < 20; i++ {
		if got := render(); got != first {
			t.Fatalf("stitched tree varies with scheduling:\n%s\nvs\n%s", got, first)
		}
	}
	if !strings.Contains(first, "shard2") || !strings.Contains(first, "range") {
		t.Errorf("stitched tree missing workers:\n%s", first)
	}
}

// TestAdoptJoinEmptyAndNil pins the edges: joining with no completed
// roots is a no-op, and nil handles stay inert.
func TestAdoptJoinEmptyAndNil(t *testing.T) {
	tr := NewTracer()
	root := tr.Begin("query")
	ad := tr.Adopt(root)
	ad.Join() // nothing completed yet
	sp := ad.Begin("w")
	sp.Charge(4)
	sp.End()
	ad.Join()
	ad.Join() // drained: second join adds nothing
	root.End()
	if root.Total() != 4 || len(root.Node().Children) != 1 {
		t.Errorf("root total=%d children=%d", root.Total(), len(root.Node().Children))
	}
	if tr.Adopt(nil) != nil {
		t.Error("Adopt(nil parent) != nil")
	}
	var nilT *Tracer
	if nilT.Adopt(root) != nil {
		t.Error("nil.Adopt != nil")
	}
	nilT.Join()
}

// TestBeginDedupesAttrs pins the last-write-wins contract for repeated
// attribute keys passed to Begin, keeping the first occurrence's
// position.
func TestBeginDedupesAttrs(t *testing.T) {
	tr := NewTracer()
	sp := tr.Begin("q", A("engine", "serial"), A("rows", "5"), A("engine", "parallel"))
	sp.End()
	attrs := sp.Node().Attrs
	if len(attrs) != 2 {
		t.Fatalf("attrs = %v, want 2 deduped", attrs)
	}
	if attrs[0] != (Attr{Key: "engine", Value: "parallel"}) || attrs[1] != (Attr{Key: "rows", Value: "5"}) {
		t.Errorf("deduped attrs = %v", attrs)
	}
	// SetAttr replaces in place, same contract.
	sp.SetAttr("rows", "9")
	if got := sp.Node().Attrs; len(got) != 2 || got[1].Value != "9" {
		t.Errorf("after SetAttr: %v", got)
	}
}

// TestWriteTreeEdges covers what the golden tests don't: a nil root, a
// root with no charges at all, and a child-only tree where every tick
// lives below an uncharged root.
func TestWriteTreeEdges(t *testing.T) {
	var b strings.Builder
	if err := WriteTree(&b, nil); err != nil {
		t.Fatal(err)
	}
	if b.String() != "(no trace)\n" {
		t.Errorf("nil root = %q", b.String())
	}

	tr := NewTracer()
	empty := tr.Begin("query")
	empty.End()
	b.Reset()
	if err := WriteTree(&b, empty); err != nil {
		t.Fatal(err)
	}
	want := "query: self=0 total=0\ntotal charge = 0 ticks\n"
	if b.String() != want {
		t.Errorf("empty tree:\n%s\nwant:\n%s", b.String(), want)
	}

	root := tr.Begin("query")
	c1 := tr.Begin("scan")
	c1.Charge(30)
	c1.End()
	c2 := tr.Begin("fold")
	c2.Charge(12)
	c2.End()
	root.End()
	b.Reset()
	if err := WriteTree(&b, root); err != nil {
		t.Fatal(err)
	}
	want = "query: self=0 total=42\n" +
		"  scan: self=30 total=30\n" +
		"  fold: self=12 total=12\n" +
		"total charge = 42 ticks\n"
	if b.String() != want {
		t.Errorf("child-only tree:\n%s\nwant:\n%s", b.String(), want)
	}
}
