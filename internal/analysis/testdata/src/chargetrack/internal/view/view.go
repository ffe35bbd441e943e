// Package view is the charge-tracking fixture's read path: one charged
// read, one uncharged read on a verb path (the finding), one uncharged
// read no verb reaches, and two reads inside closures — one handed to a
// helper that charges around it, one to a helper that does not (the
// second finding).
package view

import "statdb/internal/colstore"

// Tracer mimics obs.Tracer's charging surface.
type Tracer struct{}

// Charge accounts ticks to the innermost span and the budget.
func (t *Tracer) Charge(n int64) {}

// ChargePages accounts page reads to the budget.
func (t *Tracer) ChargePages(n int64) {}

// View reads columns through a store-backed file.
type View struct {
	file   *colstore.File
	tracer *Tracer
}

// WarmColumn charges the read's cost; no finding.
func (v *View) WarmColumn(attr string) ([]float64, []bool, error) {
	xs, valid, err := v.file.NumericColumn(attr)
	v.tracer.Charge(int64(len(xs)))
	return xs, valid, err
}

// ColdColumn reads without charging, and its only verb-side caller
// never charges either — the finding lands on the read below.
func (v *View) ColdColumn(attr string) ([]float64, []bool, error) {
	return v.file.NumericColumn(attr)
}

// Audit reads uncharged too, but no query verb reaches it, so the
// rule does not constrain it; no finding.
func Audit(v *View) ([]float64, error) {
	xs, _, err := v.file.NumericColumn("AGE")
	return xs, err
}

// RunColumn reads inside a closure it hands to metered, which charges
// around whatever it runs; no finding.
func (v *View) RunColumn(attr string) ([]float64, error) {
	var xs []float64
	err := v.metered(func() (err error) {
		xs, _, err = v.file.NumericColumn(attr)
		return err
	})
	return xs, err
}

// LoggedColumn reads inside a closure it hands to logged, which charges
// nothing — the finding lands on the read inside the closure.
func (v *View) LoggedColumn(attr string) ([]float64, error) {
	var xs []float64
	err := v.logged(func() (err error) {
		xs, _, err = v.file.NumericColumn(attr)
		return err
	})
	return xs, err
}

// metered runs read and charges its pages.
func (v *View) metered(read func() error) error {
	err := read()
	v.tracer.ChargePages(1)
	return err
}

// logged runs read without charging it.
func (v *View) logged(read func() error) error {
	return read()
}
