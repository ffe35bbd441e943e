package summary

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"statdb/internal/rules"
	"statdb/internal/stats"
)

// serialOracle is each built-in's reference operator over a row slice
// (stats/desc.go, stats/order.go): the oracle the folded states are held
// to.
var serialOracle = map[string]func(xs []float64, valid []bool) (float64, error){
	"count":    func(xs []float64, valid []bool) (float64, error) { return float64(stats.Count(xs, valid)), nil },
	"sum":      func(xs []float64, valid []bool) (float64, error) { return stats.Sum(xs, valid), nil },
	"mean":     stats.Mean,
	"variance": stats.Variance,
	"sd":       stats.StdDev,
	"min": func(xs []float64, valid []bool) (float64, error) {
		lo, _, err := stats.Extremes(xs, valid)
		return lo, err
	},
	"max": func(xs []float64, valid []bool) (float64, error) {
		_, hi, err := stats.Extremes(xs, valid)
		return hi, err
	},
	"median": stats.Median,
	"q1":     func(xs []float64, valid []bool) (float64, error) { return stats.Quantile(xs, valid, 0.25) },
	"q3":     func(xs []float64, valid []bool) (float64, error) { return stats.Quantile(xs, valid, 0.75) },
	"mode": func(xs []float64, valid []bool) (float64, error) {
		m, _, err := stats.Mode(xs, valid)
		return m, err
	},
	"unique": func(xs []float64, valid []bool) (float64, error) { return float64(stats.UniqueCount(xs, valid)), nil },
}

// TestAggregateTableMatchesManagementDB: the Management Database's
// default strategy table and the aggregate table must name the same
// things — a function the rules maintain incrementally is re-finalized
// from its attribute's kept state, one they maintain by window has a
// quantile to slide, and no row carries maintenance the rules would
// never install.
func TestAggregateTableMatchesManagementDB(t *testing.T) {
	mdb := rules.NewManagementDB()
	for _, a := range aggregates {
		if a.final == nil || int(a.state) >= len(states) {
			t.Errorf("%s: a row needs a finalizer over a row of the state table", a.name)
		}
		if serialOracle[a.name] == nil {
			t.Errorf("%s: no serial reference operator", a.name)
		}
		st := mdb.StrategyFor(a.name)
		if got, want := !a.windowed, st == rules.StrategyIncremental; got != want {
			t.Errorf("%s: strategy %s but re-finalized from a kept state = %v", a.name, st, got)
		}
		if got, want := a.windowed, st == rules.StrategyWindow; got != want {
			t.Errorf("%s: strategy %s but windowed = %v", a.name, st, got)
		}
	}
	if len(aggregateRow) != len(aggregates) {
		t.Errorf("%d names for %d rows: a name is declared twice", len(aggregateRow), len(aggregates))
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
