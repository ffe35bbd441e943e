package summary

import (
	"math"
	"testing"

	"statdb/internal/exec"
	"statdb/internal/obs"
	"statdb/internal/stats"
)

var builtinFns = Functions()

// TestParallelScalarMatchesSerial: a pool-backed Summary Database must
// answer every built-in over a long column with the inline value, bit
// for bit — the moments too, since both cut the column on one grid.
func TestParallelScalarMatchesSerial(t *testing.T) {
	c := newColumn(3*ParallelThreshold, 77)
	for _, fn := range builtinFns {
		serial, _ := newDB()
		want, err := serial.Scalar(fn, "X", c.source())
		if err != nil {
			t.Fatal(err)
		}
		par, _ := newDB()
		par.SetExec(exec.New(4))
		got, err := par.Scalar(fn, "X", c.source())
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: parallel %v != serial %v (must be bit-identical)", fn, got, want)
		}
	}
}

// TestParallelThresholdKeepsShortColumnsSerial: below the threshold the
// pool is ignored — the fold runs inline — and results equal the serial
// operators bit for bit.
func TestParallelThresholdKeepsShortColumnsSerial(t *testing.T) {
	c := newColumn(ParallelThreshold/4, 5)
	db, _ := newDB()
	reg := obs.NewRegistry()
	db.SetExec(exec.New(8).WithMetrics(reg))
	for _, fn := range builtinFns {
		got, err := db.Scalar(fn, "X", c.source())
		if err != nil {
			t.Fatal(err)
		}
		want, err := serialOracle[fn](c.xs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: %v != serial %v on a short column", fn, got, want)
		}
	}
	if n := reg.Counter(obs.MExecRunsParallel).Value() + reg.Counter(obs.MExecRunsSerial).Value(); n != 0 {
		t.Errorf("%d folds of a short column went to the pool", n)
	}
}

// TestParallelStaleRefillUsesEngine: an invalidated entry's recompute
// path routes through the pool too, and still matches serial.
func TestParallelStaleRefillUsesEngine(t *testing.T) {
	c := newColumn(2*ParallelThreshold+17, 13)
	db, _ := newDB()
	db.SetExec(exec.New(4))
	if _, err := db.Scalar("median", "X", c.source()); err != nil {
		t.Fatal(err)
	}
	db.Invalidate("X")
	got, err := db.Scalar("median", "X", c.source())
	if err != nil {
		t.Fatal(err)
	}
	want, err := stats.Median(c.xs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("refilled median %v != serial %v", got, want)
	}
	if n := db.Counters().StaleRefill; n != 1 {
		t.Errorf("StaleRefill = %d, want 1", n)
	}
}
