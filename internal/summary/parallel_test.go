package summary

import (
	"math"
	"testing"

	"statdb/internal/exec"
	"statdb/internal/stats"
)

var builtinFns = Functions()

// TestParallelScalarMatchesSerial: a pool-backed Summary Database must
// answer every built-in over a long column with the serial value —
// bit-identical for the order-insensitive functions, 1e-12 relative for
// the sum-based ones.
func TestParallelScalarMatchesSerial(t *testing.T) {
	exact := map[string]bool{
		"count": true, "min": true, "max": true, "median": true,
		"q1": true, "q3": true, "unique": true, "mode": true,
	}
	c := newColumn(3*ParallelThreshold, 77)
	for _, fn := range builtinFns {
		serial, _ := newDB()
		want, err := serial.Scalar(fn, "X", c.source())
		if err != nil {
			t.Fatal(err)
		}
		par, _ := newDB()
		par.SetExec(exec.New(4), 0)
		got, err := par.Scalar(fn, "X", c.source())
		if err != nil {
			t.Fatal(err)
		}
		if exact[fn] {
			if got != want {
				t.Errorf("%s: parallel %v != serial %v (must be bit-identical)", fn, got, want)
			}
			continue
		}
		scale := math.Max(math.Abs(got), math.Abs(want))
		if got != want && math.Abs(got-want) > 1e-12*scale {
			t.Errorf("%s: parallel %v != serial %v", fn, got, want)
		}
	}
}

// TestParallelThresholdKeepsShortColumnsSerial: below the threshold the
// pool is ignored and results equal the serial operators bit for bit.
func TestParallelThresholdKeepsShortColumnsSerial(t *testing.T) {
	c := newColumn(ParallelThreshold/4, 5)
	db, _ := newDB()
	db.SetExec(exec.New(8), 0)
	for _, fn := range builtinFns {
		got, err := db.Scalar(fn, "X", c.source())
		if err != nil {
			t.Fatal(err)
		}
		want, err := aggregateByName[fn].serial(c.xs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: %v != serial %v on a short column", fn, got, want)
		}
	}
}

// TestParallelStaleRefillUsesEngine: an invalidated entry's recompute
// path routes through the pool too, and still matches serial.
func TestParallelStaleRefillUsesEngine(t *testing.T) {
	c := newColumn(2*ParallelThreshold+17, 13)
	db, _ := newDB()
	db.SetExec(exec.New(4), 0)
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
