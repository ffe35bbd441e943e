package summary

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"statdb/internal/rules"
)

// TestAggregateTableMatchesManagementDB: the Management Database's
// default strategy table and the aggregate table must name the same
// things — a function the rules maintain incrementally has a maintainer
// constructor or is re-finalized from the retained frequency table, one
// they maintain by window has a quantile to slide, and no row carries
// maintenance the rules would never install.
func TestAggregateTableMatchesManagementDB(t *testing.T) {
	mdb := rules.NewManagementDB()
	for _, a := range aggregates {
		if (a.moments == nil) == (a.freq == nil) {
			t.Errorf("%s: exactly one of the moments and freq finalizers must be set", a.name)
		}
		if a.serial == nil {
			t.Errorf("%s: no serial reference operator", a.name)
		}
		st := mdb.StrategyFor(a.name)
		if got, want := a.maintain != nil || a.tabled(), st == rules.StrategyIncremental; got != want {
			t.Errorf("%s: strategy %s but maintainer constructor or retained table present = %v", a.name, st, got)
		}
		if a.maintain != nil && a.moments == nil {
			t.Errorf("%s: a maintainer constructor on a freq row", a.name)
		}
		if a.unsorted != nil && a.freq == nil {
			t.Errorf("%s: an unsorted finalizer without the table one it shortcuts", a.name)
		}
		if got, want := a.windowed, st == rules.StrategyWindow; got != want {
			t.Errorf("%s: strategy %s but windowed = %v", a.name, st, got)
		}
		if a.maintain != nil {
			if name := a.maintain(nil, nil).Name(); name != a.name {
				t.Errorf("%s: constructor builds the %q maintainer", a.name, name)
			}
		}
	}
	if len(aggregateByName) != len(aggregates) {
		t.Errorf("%d names for %d rows: a name is declared twice", len(aggregateByName), len(aggregates))
	}
}

// TestUnknownFunctionListsTable: a name outside the table is rejected
// before any source is read, by an error that says what exists.
func TestUnknownFunctionListsTable(t *testing.T) {
	db, _ := newDB()
	c := newColumn(10, 1)
	for _, fn := range []string{"total", "range", ""} {
		_, err := db.Scalar(fn, "X", c.source())
		if err == nil || !strings.Contains(err.Error(), strings.Join(Functions(), " ")) {
			t.Errorf("Scalar(%q) = %v, want an unknown-function error listing the table", fn, err)
		}
		if _, err := Finalize(fn, State{}); err == nil {
			t.Errorf("Finalize(%q) accepted", fn)
		}
	}
	if p := db.Counters().Passes; p != 0 {
		t.Errorf("unknown functions cost %d column passes", p)
	}
	if db.Len() != 0 {
		t.Errorf("unknown functions left %d cache entries", db.Len())
	}
}

// TestReadmeListsTableFunctions keeps the README's function-list
// sentence rendered from the table.
func TestReadmeListsTableFunctions(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	fns := Functions()
	want := fmt.Sprintf("`compute` knows %d functions — %s —", len(fns), strings.Join(fns, " "))
	if !strings.Contains(strings.Join(strings.Fields(string(readme)), " "), want) {
		t.Errorf("README.md lacks the sentence rendered from the aggregate table:\n%s", want)
	}
}
