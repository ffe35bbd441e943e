package obs

import (
	"errors"
	"testing"
)

func TestBudgetLatchesFirstBreach(t *testing.T) {
	b := NewBudget(100, 0)
	b.ChargeTicks(60)
	if b.Err() != nil {
		t.Fatal("breach before ceiling")
	}
	b.ChargeTicks(50) // 110 > 100: first breach
	b.ChargeTicks(40) // accepted, but the latched error keeps the first numbers
	var be *BudgetError
	if !errors.As(b.Err(), &be) {
		t.Fatalf("Err() = %v, want *BudgetError", b.Err())
	}
	if be.Resource != "ticks" || be.Limit != 100 || be.Used != 110 {
		t.Errorf("latched %+v, want ticks 110/100", be)
	}
	ticks, pages := b.Used()
	if ticks != 150 || pages != 0 {
		t.Errorf("Used() = %d/%d, want 150/0", ticks, pages)
	}
}

func TestBudgetPagesAndUnlimited(t *testing.T) {
	b := NewBudget(0, 2)
	b.ChargeTicks(1 << 40) // unlimited ticks: counted, never breaches
	b.ChargePages(2)
	if b.Err() != nil {
		t.Fatal("pages at ceiling should not breach (ceiling is inclusive)")
	}
	b.ChargePages(1)
	var be *BudgetError
	if !errors.As(b.Err(), &be) || be.Resource != "pages" {
		t.Fatalf("Err() = %v, want pages breach", b.Err())
	}
}

func TestBudgetNilSafe(t *testing.T) {
	var b *Budget
	b.ChargeTicks(5)
	b.ChargePages(5)
	if b.Err() != nil {
		t.Error("nil budget errored")
	}
	ticks, pages := b.Used()
	if ticks != 0 || pages != 0 {
		t.Error("nil budget counted")
	}
}

func TestTracerBudgetPlumbing(t *testing.T) {
	tr := NewTracer()
	b := NewBudget(10, 1)
	tr.SetBudget(b)

	sp := tr.Begin("q")
	sp.Charge(4) // via span
	tr.Charge(3) // via tracer, attributed to innermost
	sp.End()
	tr.Charge(5) // no open span: still billed to the budget
	tr.ChargePages(2)

	ticks, pages := b.Used()
	if ticks != 12 || pages != 2 {
		t.Fatalf("budget saw %d ticks / %d pages, want 12/2", ticks, pages)
	}
	if tr.BudgetErr() == nil {
		t.Fatal("tracer did not surface the breach")
	}
	tr.SetBudget(nil)
	if tr.BudgetErr() != nil {
		t.Fatal("BudgetErr after removing budget")
	}
	tr.Charge(100) // no budget installed: fine
}
