// Package query is the charge-tracking fixture's verb layer: exec*
// functions are the roots every read path is audited from.
package query

import "statdb/internal/view"

// execHist is a query verb. The WarmColumn read is charged where it
// happens; the ColdColumn read is charged nowhere between here and the
// storage call, which is the finding (reported at the read site).
func execHist(v *view.View) error {
	if _, _, err := v.WarmColumn("SALARY"); err != nil {
		return err
	}
	_, _, err := v.ColdColumn("AGE")
	return err
}

// execRuns is a query verb reading through closures: RunColumn's is
// charged by the helper it runs under, LoggedColumn's is not.
func execRuns(v *view.View) error {
	if _, err := v.RunColumn("GRADE"); err != nil {
		return err
	}
	_, err := v.LoggedColumn("GRADE")
	return err
}
