package analysis

import (
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// graphTree is a two-package fixture exercising the resolution forms
// the interprocedural rules lean on: same-package calls, method calls
// through receivers and locals, cross-package calls, go/defer edge
// marking, interface dispatch (a named slice of the interface ranged
// over in its own method included), promoted methods, an explicitly
// instantiated generic function, and a call through a func-typed field.
func graphTree(t *testing.T) *Tree {
	t.Helper()
	return writeTree(t, map[string]string{
		"internal/shard/a.go": `package shard

import "statdb/internal/colstore"

type Store struct {
	file *colstore.File
}

func (s *Store) Read() ([]float64, error) {
	xs, _, err := s.file.NumericColumn("AGE") //lint:allow error-flow the valid mask is unused here
	return xs, err
}

func (s *Store) Spawn() {
	go s.helper()
	defer s.helper()
}

func (s *Store) helper() {}

func top() {
	s := &Store{}
	if _, err := s.Read(); err != nil {
		return
	}
}

// Pred has two implementations. All is a named slice of Pred whose
// Match ranges over its parts; it lacks Name, so it is not a Pred and
// the inner p.Match() cannot run All.Match itself.
type Pred interface {
	Match(x int) bool
	Name() string
}

type Even struct{}

func (Even) Match(x int) bool { return x%2 == 0 }
func (Even) Name() string     { return "even" }

type Small struct{}

func (Small) Match(x int) bool { return x < 10 }
func (Small) Name() string     { return "small" }

type All []Pred

func (a All) Match(x int) bool {
	for _, p := range a {
		if !p.Match(x) {
			return false
		}
	}
	return true
}

func named(p Pred) string { return p.Name() }

type base struct{}

func (base) Ping() {}

type Outer struct{ base }

func promoted(o *Outer) { o.Ping() }

func first[T any](xs []T) T { return xs[0] }

func generic() int { return first[int]([]int{1}) }

type hooks struct{ Ping func() }

func (h *hooks) fire() { h.Ping() }
`,
		"internal/colstore/file.go": `package colstore

type File struct{}

func (f *File) NumericColumn(col string) ([]float64, []bool, error) {
	return nil, nil, nil
}
`,
	})
}

func TestCallGraphResolution(t *testing.T) {
	g := graphTree(t).Graph()

	readKey := FuncKey{Pkg: "internal/shard", Recv: "Store", Name: "Read"}
	colKey := FuncKey{Pkg: "internal/colstore", Recv: "File", Name: "NumericColumn"}
	helperKey := FuncKey{Pkg: "internal/shard", Recv: "Store", Name: "helper"}

	if g.Funcs[readKey] == nil || g.Funcs[colKey] == nil {
		t.Fatalf("missing functions in graph: %v", g.SortedFuncs())
	}

	// Cross-package method call through the field's declared type.
	var toCol *CallSite
	for _, cs := range g.Funcs[readKey].Calls {
		if cs.Resolved && cs.Callee == colKey {
			toCol = cs
		}
	}
	if toCol == nil {
		t.Errorf("Store.Read -> colstore.File.NumericColumn edge not resolved")
	}

	// Same-package method call through a composite-literal local.
	topKey := FuncKey{Pkg: "internal/shard", Name: "top"}
	found := false
	for _, cs := range g.Funcs[topKey].Calls {
		if cs.Resolved && cs.Callee == readKey {
			found = true
		}
	}
	if !found {
		t.Errorf("top -> Store.Read edge not resolved through the local binding")
	}

	// Interface dispatch reaches every implementation; ranging over a
	// named slice of the interface inside its own method adds no
	// self-edge.
	shard := func(recv, name string) FuncKey { return FuncKey{Pkg: "internal/shard", Recv: recv, Name: name} }
	targets := func(fn FuncKey) []FuncKey {
		var out []FuncKey
		for _, cs := range g.Funcs[fn].Calls {
			out = append(out, cs.Targets...)
		}
		return out
	}
	for _, c := range []struct {
		fn   FuncKey
		want []FuncKey
	}{
		{shard("All", "Match"), []FuncKey{shard("Even", "Match"), shard("Small", "Match")}},
		{shard("", "named"), []FuncKey{shard("Even", "Name"), shard("Small", "Name")}},
		{shard("", "promoted"), []FuncKey{shard("base", "Ping")}},
		{shard("", "generic"), []FuncKey{shard("", "first")}},
		{shard("hooks", "fire"), nil},
	} {
		if got := targets(c.fn); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s calls %v, want %v", c.fn, got, c.want)
		}
	}
	if cs := g.Funcs[shard("hooks", "fire")].Calls[0]; cs.Resolved {
		t.Errorf("call through a func-typed field resolved to %s", cs.Callee)
	}

	// go/defer edges carry their flags.
	var goEdge, deferEdge bool
	for _, cs := range g.callers[helperKey] {
		if cs.Go {
			goEdge = true
		}
		if cs.Deferred {
			deferEdge = true
		}
	}
	if !goEdge || !deferEdge {
		t.Errorf("go/defer edges into helper not marked: go=%v defer=%v", goEdge, deferEdge)
	}
}

func TestSortedFuncsDeterministic(t *testing.T) {
	g := graphTree(t).Graph()
	a := g.SortedFuncs()
	b := g.SortedFuncs()
	if len(a) == 0 {
		t.Fatal("no functions")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("SortedFuncs not stable at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestHoldsFixpoint(t *testing.T) {
	tree := writeTree(t, map[string]string{
		"internal/core/m.go": `package core

import "sync"

type R struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func (r *R) Locked() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.step()
}

func (r *R) step() { r.inner() }

func (r *R) inner() { r.n++ }

func (r *R) Bare() { r.inner() }
`,
	})
	g := tree.Graph()
	holds := g.Holds(LockKey{Type: TypeRef{Pkg: "internal/core", Name: "R"}, Field: "mu"})
	lockedKey := FuncKey{Pkg: "internal/core", Recv: "R", Name: "Locked"}
	stepKey := FuncKey{Pkg: "internal/core", Recv: "R", Name: "step"}
	innerKey := FuncKey{Pkg: "internal/core", Recv: "R", Name: "inner"}
	bareKey := FuncKey{Pkg: "internal/core", Recv: "R", Name: "Bare"}
	if !holds[lockedKey] || !holds[stepKey] {
		t.Errorf("Locked/step should hold mu: %v %v", holds[lockedKey], holds[stepKey])
	}
	if holds[bareKey] {
		t.Errorf("Bare acquires nothing and has no callers; it must not hold mu")
	}
	if holds[innerKey] {
		t.Errorf("inner is reachable from Bare without the lock; it must not hold mu")
	}
}

// BenchmarkFullTree measures a complete load + rule run over the real
// repository, serial (GOMAXPROCS=1) versus parallel, demonstrating the
// one-goroutine-per-package loader and per-rule fan-out pay off.
func BenchmarkFullTree(b *testing.B) {
	root := filepath.Join("..", "..")
	bench := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tree, err := Load(root)
			if err != nil {
				b.Fatal(err)
			}
			if fs := Run(tree, DefaultRules()); len(fs) != 0 {
				b.Fatalf("repo tree not clean: %v", fs[0])
			}
		}
	}
	b.Run("serial", func(b *testing.B) {
		prev := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(prev)
		bench(b)
	})
	b.Run("parallel", bench)
}
