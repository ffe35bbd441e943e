//go:build !race

// The race detector makes sync.Pool drop items at random (fmt's printers
// come from one), so an exact allocation count does not hold under it.

package query

import (
	"bytes"
	"runtime/debug"
	"testing"

	"statdb/internal/core"
	"statdb/internal/workload"
)

// TestExecutorAllocations holds a statement's allocations through
// Executor.Run to exact counts: a repeated compute on a memory-backed
// view (a Summary DB hit, so nearly all of it is the executor's own
// bookkeeping), and the same statement under explain. Collection is off
// while counting, as in the other exact allocation checks.
func TestExecutorAllocations(t *testing.T) {
	d := core.New()
	if err := d.LoadRaw("micro", workload.Microdata(10240, 12)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	e := NewExecutor(d, "analyst", &out)
	if err := e.Run("materialize mv from micro project AGE,SALARY"); err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		stmt string
		want float64
	}{
		{"compute mean SALARY on mv", 29},
		{"explain compute mean SALARY on mv", 47},
	} {
		if err := e.Run(c.stmt); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			out.Reset()
			if err := e.Run(c.stmt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != c.want {
			t.Errorf("%q: %v allocations, want %v", c.stmt, allocs, c.want)
		}
	}
}
