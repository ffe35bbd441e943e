package rules

import (
	"errors"
	"sort"
	"testing"

	"statdb/internal/dataset"
)

func TestDefaultStrategies(t *testing.T) {
	m := NewManagementDB()
	cases := map[string]Strategy{
		"sum":       StrategyIncremental,
		"mean":      StrategyIncremental,
		"min":       StrategyIncremental,
		"median":    StrategyWindow,
		"q1":        StrategyWindow,
		"mode":      StrategyIncremental,
		"unique":    StrategyIncremental,
		"histogram": StrategyInvalidate,
		"unknown":   StrategyInvalidate, // safe default
	}
	for fn, want := range cases {
		if got := m.StrategyFor(fn); got != want {
			t.Errorf("StrategyFor(%q) = %v, want %v", fn, got, want)
		}
	}
}

func TestStrategyAndScopeStrings(t *testing.T) {
	if StrategyIncremental.String() != "incremental" || StrategyWindow.String() != "window" ||
		StrategyInvalidate.String() != "invalidate" || StrategyRecompute.String() != "recompute" {
		t.Error("strategy strings wrong")
	}
	if ScopeLocal.String() != "local" || ScopeGlobal.String() != "global" {
		t.Error("scope strings wrong")
	}
}

func localRule(view, attr string, inputs ...string) DerivedRule {
	return DerivedRule{
		View: view, Attr: attr, Inputs: inputs, Scope: ScopeLocal,
		Row: func(sch *dataset.Schema, row dataset.Row) dataset.Value { return dataset.Null },
	}
}

func TestDerivedRuleValidation(t *testing.T) {
	if err := (DerivedRule{}).Validate(); err == nil {
		t.Error("empty rule accepted")
	}
	if err := (DerivedRule{View: "v", Attr: "a"}).Validate(); err == nil {
		t.Error("rule without inputs accepted")
	}
	if err := (DerivedRule{View: "v", Attr: "a", Inputs: []string{"x"}, Scope: ScopeLocal}).Validate(); err == nil {
		t.Error("local rule without Row accepted")
	}
	if err := (DerivedRule{View: "v", Attr: "a", Inputs: []string{"x"}, Scope: ScopeGlobal}).Validate(); err == nil {
		t.Error("global rule without Column accepted")
	}
	if err := localRule("v", "a", "x").Validate(); err != nil {
		t.Errorf("valid rule rejected: %v", err)
	}
}

func TestDerivedRuleRegistryAndTrigger(t *testing.T) {
	m := NewManagementDB()
	if err := m.AddDerivedRule(localRule("v", "LOG_SAL", "AVE_SALARY")); err != nil {
		t.Fatal(err)
	}
	if err := m.AddDerivedRule(localRule("v", "TOTAL", "A", "B", "AVE_SALARY")); err != nil {
		t.Fatal(err)
	}
	if err := m.AddDerivedRule(localRule("other", "LOG_SAL", "AVE_SALARY")); err != nil {
		t.Fatal(err)
	}
	if err := m.AddDerivedRule(localRule("v", "LOG_SAL", "AVE_SALARY")); err == nil {
		t.Error("duplicate rule accepted")
	}
	fired := m.DerivedRulesFor("v", "AVE_SALARY")
	if len(fired) != 2 || fired[0].Attr != "LOG_SAL" || fired[1].Attr != "TOTAL" {
		t.Errorf("DerivedRulesFor = %+v", fired)
	}
	if got := m.DerivedRulesFor("v", "B"); len(got) != 1 || got[0].Attr != "TOTAL" {
		t.Errorf("DerivedRulesFor(B) = %+v", got)
	}
	if got := m.DerivedRulesFor("v", "UNRELATED"); len(got) != 0 {
		t.Errorf("unrelated attr fired %d rules", len(got))
	}
	if _, ok := m.derived[derivedKey("v", "LOG_SAL")]; !ok {
		t.Error("derived rule lookup failed")
	}
	if _, ok := m.derived[derivedKey("v", "NOPE")]; ok {
		t.Error("missing rule found")
	}
}

func TestViewRegistryDuplicateDetection(t *testing.T) {
	m := NewManagementDB()
	def := ViewDef{
		Name: "wages81", Analyst: "boral", Source: "census80",
		Ops: []string{"select RACE = W", "project SEX,AGE_GROUP,AVE_SALARY"},
	}
	if err := m.RegisterView(def); err != nil {
		t.Fatal(err)
	}
	// Same name is rejected outright.
	if err := m.RegisterView(def); err == nil {
		t.Error("same-name view accepted")
	}
	// Same derivation by the same analyst under another name is the
	// wasteful re-materialization Section 2.3 wants prevented.
	dup := def
	dup.Name = "wages81-again"
	err := m.RegisterView(dup)
	var dupErr *ErrDuplicateView
	if !errors.As(err, &dupErr) || dupErr.Existing != "wages81" {
		t.Errorf("duplicate derivation error = %v", err)
	}
	// A different analyst's private view does not collide...
	other := def
	other.Name = "dewitt-copy"
	other.Analyst = "dewitt"
	if err := m.RegisterView(other); err != nil {
		t.Errorf("other analyst's identical private view rejected: %v", err)
	}
	// ...but once the original is public it does.
	if err := m.Publish("wages81"); err != nil {
		t.Fatal(err)
	}
	third := def
	third.Name = "bates-copy"
	third.Analyst = "bates"
	if err := m.RegisterView(third); err == nil {
		t.Error("copy of a public view accepted")
	}
	// Different ops: fine.
	diff := def
	diff.Name = "wages81-male"
	diff.Ops = append(append([]string{}, def.Ops...), "select SEX = M")
	if err := m.RegisterView(diff); err != nil {
		t.Errorf("distinct derivation rejected: %v", err)
	}
}

func TestPublishAndList(t *testing.T) {
	m := NewManagementDB()
	if err := m.Publish("nope"); err == nil {
		t.Error("publish of missing view accepted")
	}
	_ = m.RegisterView(ViewDef{Name: "a", Analyst: "x", Source: "s", Ops: []string{"1"}})
	_ = m.RegisterView(ViewDef{Name: "b", Analyst: "x", Source: "s", Ops: []string{"2"}})
	if err := m.Publish("b"); err != nil {
		t.Fatal(err)
	}
	if got := m.Views(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Views = %v", got)
	}
	pub := m.PublicViews()
	if len(pub) != 1 || pub[0].Name != "b" {
		t.Errorf("PublicViews = %+v", pub)
	}
	if v, ok := m.View("a"); !ok || v.Analyst != "x" {
		t.Errorf("View(a) = %+v, %v", v, ok)
	}
}

func TestHistory(t *testing.T) {
	m := NewManagementDB()
	_ = m.RegisterView(ViewDef{Name: "v", Analyst: "x", Source: "s", Ops: []string{"1"}})
	h, err := m.HistoryOf("v")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.HistoryOf("nope"); err == nil {
		t.Error("history of missing view returned")
	}
	if _, err := h.PopLast(); err == nil {
		t.Error("pop from empty history accepted")
	}
	h.Append(UpdateRecord{Seq: m.NextSeq(), Analyst: "x", Description: "set A = 1 where B = 2",
		Attr: "A", New: dataset.Int(1), Rows: []int32{3}})
	h.Append(UpdateRecord{Seq: m.NextSeq(), Analyst: "x", Description: "second"})
	if h.Len() != 2 {
		t.Fatalf("Len = %d", h.Len())
	}
	last, ok := h.Last()
	if !ok || last.Description != "second" {
		t.Errorf("Last = %+v, %v", last, ok)
	}
	popped, err := h.PopLast()
	if err != nil || popped.Description != "second" {
		t.Errorf("PopLast = %+v, %v", popped, err)
	}
	if h.Len() != 1 {
		t.Errorf("Len after pop = %d", h.Len())
	}
	recs := h.Records()
	if len(recs) != 1 || recs[0].Attr != "A" || recs[0].Rows[0] != 3 {
		t.Errorf("Records = %+v", recs)
	}
	if m.NextSeq() <= 2 {
		t.Error("NextSeq not monotone")
	}
}

// PublicViews lists the published view definitions.
func (m *ManagementDB) PublicViews() []ViewDef {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []ViewDef
	for _, v := range m.views {
		if v.Public {
			out = append(out, *v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
