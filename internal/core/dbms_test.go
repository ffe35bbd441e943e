package core

import (
	"math"
	"strings"
	"testing"

	"statdb/internal/dataset"
	"statdb/internal/relalg"
	"statdb/internal/stats"
	"statdb/internal/workload"
)

func newDBMS(t testing.TB) *DBMS {
	d := New()
	census, err := workload.Census(workload.DefaultCensusSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.LoadRaw("census80", census); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFigure3Architecture exercises the complete organization of
// Figure 3: raw database on tape, per-analyst concrete views with their
// own Summary Databases, and the shared Management Database.
func TestFigure3Architecture(t *testing.T) {
	d := newDBMS(t)
	boral := d.Analyst("boral")
	dewitt := d.Analyst("dewitt")

	// Analyst 1 materializes a private view.
	mb := boral.Materialize("census80")
	mb.Builder().Select(relalg.Cmp{Attr: "SEX", Op: relalg.Eq, Val: dataset.String("M")})
	v1, err := mb.Build("males")
	if err != nil {
		t.Fatal(err)
	}
	if v1.Rows() == 0 {
		t.Fatal("empty view")
	}

	// Its Summary Database caches function results.
	m1, err := v1.Compute("median", "AVE_SALARY")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v1.Summary().Lookup("median", "AVE_SALARY"); !ok {
		t.Error("median not cached")
	}

	// Analyst 2 cannot see the private view.
	if _, err := dewitt.View("males"); err == nil {
		t.Error("private view visible to another analyst")
	}
	// The owner can.
	got, err := boral.View("males")
	if err != nil || got != v1 {
		t.Fatalf("owner access: %v", err)
	}

	// Publishing shares it — and analyst 2 sees the same summaries.
	if err := dewitt.Publish("males"); err == nil {
		t.Error("non-owner publish accepted")
	}
	if err := boral.Publish("males"); err != nil {
		t.Fatal(err)
	}
	shared, err := dewitt.View("males")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := shared.Compute("median", "AVE_SALARY")
	if err != nil || m2 != m1 {
		t.Errorf("shared median = %g vs %g, %v", m2, m1, err)
	}
	pubs := dewitt.PublicViews()
	if len(pubs) != 1 || pubs[0].Name != "males" {
		t.Errorf("PublicViews = %+v", pubs)
	}

	// The Management Database records both the definition and the history.
	def, ok := d.Management().View("males")
	if !ok || def.Source != "census80" || len(def.Ops) != 1 {
		t.Errorf("definition = %+v", def)
	}
}

func TestDuplicateMaterializationRejected(t *testing.T) {
	d := newDBMS(t)
	a := d.Analyst("a")
	mb := a.Materialize("census80")
	mb.Builder().Select(relalg.Cmp{Attr: "RACE", Op: relalg.Eq, Val: dataset.Int(1)})
	if _, err := mb.Build("race1"); err != nil {
		t.Fatal(err)
	}
	mb2 := a.Materialize("census80")
	mb2.Builder().Select(relalg.Cmp{Attr: "RACE", Op: relalg.Eq, Val: dataset.Int(1)})
	_, err := mb2.Build("race1-again")
	if err == nil || !strings.Contains(err.Error(), "identical view") {
		t.Errorf("duplicate error = %v", err)
	}
}

func TestViewUpdatesKeepSummariesConsistent(t *testing.T) {
	d := newDBMS(t)
	a := d.Analyst("a")
	v, err := a.Materialize("census80").Build("all")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Compute("mean", "AVE_SALARY"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.UpdateWhere("AVE_SALARY",
		relalg.Cmp{Attr: "AVE_SALARY", Op: relalg.Gt, Val: dataset.Int(60000)},
		dataset.Int(60000)); err != nil {
		t.Fatal(err)
	}
	got, err := v.Compute("mean", "AVE_SALARY")
	if err != nil {
		t.Fatal(err)
	}
	xs, valid, _ := v.Dataset().NumericByName("AVE_SALARY")
	want, _ := stats.Mean(xs, valid)
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("mean = %g, want %g", got, want)
	}
}

func TestMetaDrivenMaterialization(t *testing.T) {
	d := newDBMS(t)
	g := d.Meta()
	if _, err := g.AddGeneralization("Census", "all"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddAttribute("Salary", "", "census80", "AVE_SALARY"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddAttribute("Sex", "", "census80", "SEX"); err != nil {
		t.Fatal(err)
	}
	_ = g.Link("Census", "Salary")
	_ = g.Link("Census", "Sex")

	s, err := g.NewSession("Census")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Mark(); err != nil {
		t.Fatal(err)
	}
	req, err := s.Request()
	if err != nil {
		t.Fatal(err)
	}
	v, err := d.Analyst("a").MaterializeFromMeta(req, "from-meta")
	if err != nil {
		t.Fatal(err)
	}
	if v.Dataset().Schema().Len() != 2 {
		t.Errorf("schema = %s", v.Dataset().Schema())
	}
	if v.Dataset().Schema().Index("AVE_SALARY") < 0 || v.Dataset().Schema().Index("SEX") < 0 {
		t.Errorf("wrong attributes: %s", v.Dataset().Schema())
	}
}

func TestAdoptDatasetAndAnyView(t *testing.T) {
	d := newDBMS(t)
	a := d.Analyst("sampler")
	if a.Name() != "sampler" {
		t.Errorf("Name = %q", a.Name())
	}
	ds := workload.Figure1()
	v, err := a.AdoptDataset("adopted", ds, "census80", []string{"sample 9"})
	if err != nil {
		t.Fatal(err)
	}
	if v.Rows() != 9 {
		t.Fatalf("rows = %d", v.Rows())
	}
	// Adopted views obey privacy and appear in the registry.
	if _, err := d.Analyst("other").View("adopted"); err == nil {
		t.Error("adopted view leaked")
	}
	got, err := d.AnyView("adopted")
	if err != nil || got != v {
		t.Errorf("AnyView = %v, %v", got, err)
	}
	if _, err := d.AnyView("missing"); err == nil {
		t.Error("AnyView of missing accepted")
	}
	// Duplicate derivation rejected for adopted datasets too.
	if _, err := a.AdoptDataset("adopted2", ds, "census80", []string{"sample 9"}); err == nil {
		t.Error("duplicate adopted derivation accepted")
	}
	// Archive accessor exposes the raw DB.
	if len(d.Archive().Files()) != 1 {
		t.Errorf("Archive files = %v", d.Archive().Files())
	}
}

func TestAnalystIdentityReuse(t *testing.T) {
	d := newDBMS(t)
	if d.Analyst("x") != d.Analyst("x") {
		t.Error("analyst handle not reused")
	}
	if _, err := d.Analyst("x").View("missing"); err == nil {
		t.Error("missing view returned")
	}
}
