package meta

import (
	"sort"
	"strings"
	"testing"
)

func censusGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	mustGen := func(name, desc string) {
		if _, err := g.AddGeneralization(name, desc); err != nil {
			t.Fatal(err)
		}
	}
	mustAttr := func(name, desc, file, attr string) {
		if _, err := g.AddAttribute(name, desc, file, attr); err != nil {
			t.Fatal(err)
		}
	}
	mustGen("Census", "1980 census public use sample")
	mustGen("Demographics", "who people are")
	mustGen("Economics", "what people earn")
	mustAttr("Sex", "sex code", "census80", "SEX")
	mustAttr("Race", "race code", "census80", "RACE")
	mustAttr("AgeGroup", "age group code", "census80", "AGE_GROUP")
	mustAttr("Salary", "average salary", "census80", "AVE_SALARY")
	mustAttr("Population", "population count", "census80", "POPULATION")
	for _, link := range [][2]string{
		{"Census", "Demographics"}, {"Census", "Economics"},
		{"Demographics", "Sex"}, {"Demographics", "Race"}, {"Demographics", "AgeGroup"},
		{"Economics", "Salary"}, {"Economics", "Population"},
	} {
		if err := g.Link(link[0], link[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestGraphConstruction(t *testing.T) {
	g := censusGraph(t)
	roots := g.Roots()
	if len(roots) != 1 || roots[0] != "Census" {
		t.Fatalf("Roots = %v", roots)
	}
	kids, err := g.Children("Census")
	if err != nil || len(kids) != 2 {
		t.Fatalf("Children = %v, %v", kids, err)
	}
	if _, err := g.Children("nope"); err == nil {
		t.Error("children of missing node returned")
	}
	leaves, err := g.LeavesUnder("Demographics")
	if err != nil || len(leaves) != 3 {
		t.Fatalf("LeavesUnder = %d, %v", len(leaves), err)
	}
	all, _ := g.LeavesUnder("Census")
	if len(all) != 5 {
		t.Errorf("census leaves = %d", len(all))
	}
}

func TestGraphValidation(t *testing.T) {
	g := NewGraph()
	if _, err := g.AddGeneralization("", "x"); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := g.AddAttribute("A", "", "", ""); err == nil {
		t.Error("unbound attribute accepted")
	}
	if _, err := g.AddGeneralization("G", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddGeneralization("G", ""); err == nil {
		t.Error("duplicate accepted")
	}
	if _, err := g.AddAttribute("A", "", "f", "X"); err != nil {
		t.Fatal(err)
	}
	if err := g.Link("A", "G"); err == nil {
		t.Error("attribute node as parent accepted")
	}
	if err := g.Link("G", "missing"); err == nil {
		t.Error("link to missing node accepted")
	}
	// Cycle rejection.
	if _, err := g.AddGeneralization("H", ""); err != nil {
		t.Fatal(err)
	}
	if err := g.Link("G", "H"); err != nil {
		t.Fatal(err)
	}
	if err := g.Link("H", "G"); err == nil {
		t.Error("cycle accepted")
	}
}

func TestUnlink(t *testing.T) {
	g := censusGraph(t)
	if err := g.Unlink("Census", "Economics"); err != nil {
		t.Fatal(err)
	}
	roots := g.Roots()
	if len(roots) != 2 { // Economics becomes an entry point again
		t.Errorf("Roots after unlink = %v", roots)
	}
	if err := g.Unlink("Census", "Economics"); err == nil {
		t.Error("double unlink accepted")
	}
	if err := g.Unlink("nope", "x"); err == nil {
		t.Error("unlink from missing node accepted")
	}
}

func TestDOT(t *testing.T) {
	g := censusGraph(t)
	dot := g.DOT()
	for _, want := range []string{
		"digraph meta",
		`"Census" -> "Demographics"`,
		`"Economics" -> "Salary"`,
		"census80.AVE_SALARY",
		"shape=box",
		"shape=ellipse",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Deterministic output.
	if g.DOT() != dot {
		t.Error("DOT not deterministic")
	}
}

func TestSessionNavigationAndRequest(t *testing.T) {
	g := censusGraph(t)
	s, err := g.NewSession("Census")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.NewSession("Demographics"); err == nil {
		t.Error("non-root entry accepted")
	}
	if _, err := g.NewSession("nowhere"); err == nil {
		t.Error("missing entry accepted")
	}
	if err := s.Descend("Demographics"); err != nil {
		t.Fatal(err)
	}
	if err := s.Descend("Salary"); err == nil {
		t.Error("descend to non-child accepted")
	}
	if err := s.Descend("Race"); err != nil {
		t.Fatal(err)
	}
	if got := s.Path(); got != "Census > Demographics > Race" {
		t.Errorf("Path = %q", got)
	}
	if err := s.Mark(); err != nil { // marks RACE
		t.Fatal(err)
	}
	if err := s.Ascend(); err != nil {
		t.Fatal(err)
	}
	if err := s.Ascend(); err != nil {
		t.Fatal(err)
	}
	if err := s.Ascend(); err == nil {
		t.Error("ascend past the root accepted")
	}
	if err := s.Descend("Economics"); err != nil {
		t.Fatal(err)
	}
	if err := s.Mark(); err != nil { // marks both economics attributes
		t.Fatal(err)
	}
	req, err := s.Request()
	if err != nil {
		t.Fatal(err)
	}
	attrs := req.Attributes["census80"]
	want := []string{"AVE_SALARY", "POPULATION", "RACE"}
	if len(attrs) != len(want) {
		t.Fatalf("request attrs = %v", attrs)
	}
	for i := range want {
		if attrs[i] != want[i] {
			t.Errorf("attr[%d] = %q, want %q", i, attrs[i], want[i])
		}
	}
}

func TestRequestRequiresMarks(t *testing.T) {
	g := censusGraph(t)
	s, _ := g.NewSession("Census")
	if _, err := s.Request(); err == nil {
		t.Error("empty request accepted")
	}
	// Marking at the root selects everything.
	if err := s.Mark(); err != nil {
		t.Fatal(err)
	}
	req, err := s.Request()
	if err != nil || len(req.Attributes["census80"]) != 5 {
		t.Errorf("root mark request = %+v, %v", req, err)
	}
}

func TestMarkDeduplicates(t *testing.T) {
	g := censusGraph(t)
	s, _ := g.NewSession("Census")
	_ = s.Descend("Economics")
	_ = s.Mark()
	_ = s.Mark() // marking twice must not duplicate
	req, err := s.Request()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(req.Attributes["census80"]); got != 2 {
		t.Errorf("deduped attrs = %d", got)
	}
}

// Roots lists nodes without parents — the session entry points.
func (g *Graph) Roots() []string {
	out := make([]string, 0, len(g.roots))
	for n := range g.roots {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
