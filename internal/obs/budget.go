package obs

import (
	"fmt"
	"sync"
)

// BudgetError is the typed abort raised when a query exceeds its
// resource budget — the enforcement half of the paper's cost-model
// bookkeeping (Section 5 prices work in advance; the budget stops a
// query whose actual bill runs past what the analyst agreed to pay).
// Callers detect it with errors.As.
type BudgetError struct {
	Resource string // "ticks" or "pages"
	Limit    int64  // the configured ceiling
	Used     int64  // consumption at the moment the ceiling broke
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("obs: query budget exceeded: %s used %d of %d", e.Resource, e.Used, e.Limit)
}

// Budget meters one query's resource consumption in the same virtual
// units the cost models charge: ticks (device + engine time) and pages
// (buffer-pool reads). A zero limit leaves that resource unlimited, so a
// Budget with both limits zero is pure accounting — the executor always
// attaches one to know what a query cost even when nothing is enforced.
//
// Charges are accepted past the ceiling (the scan that broke the budget
// has already happened); the first breach is latched and reported by Err
// until the budget is discarded. A nil Budget no-ops, like every other
// obs handle.
type Budget struct {
	mu       sync.Mutex
	maxTicks int64
	maxPages int64
	ticks    int64
	pages    int64
	err      error
}

// NewBudget creates a budget with the given ceilings; 0 disables a
// ceiling while still counting consumption.
func NewBudget(maxTicks, maxPages int64) *Budget {
	return &Budget{maxTicks: maxTicks, maxPages: maxPages}
}

// ChargeTicks records n ticks of work against the budget.
func (b *Budget) ChargeTicks(n int64) {
	if b == nil || n == 0 {
		return
	}
	b.mu.Lock()
	b.ticks += n
	if b.err == nil && b.maxTicks > 0 && b.ticks > b.maxTicks {
		b.err = &BudgetError{Resource: "ticks", Limit: b.maxTicks, Used: b.ticks}
	}
	b.mu.Unlock()
}

// ChargePages records n page reads against the budget.
func (b *Budget) ChargePages(n int64) {
	if b == nil || n == 0 {
		return
	}
	b.mu.Lock()
	b.pages += n
	if b.err == nil && b.maxPages > 0 && b.pages > b.maxPages {
		b.err = &BudgetError{Resource: "pages", Limit: b.maxPages, Used: b.pages}
	}
	b.mu.Unlock()
}

// Err returns the latched *BudgetError once a ceiling broke, else nil.
func (b *Budget) Err() error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// Used returns the consumption recorded so far.
func (b *Budget) Used() (ticks, pages int64) {
	if b == nil {
		return 0, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ticks, b.pages
}
