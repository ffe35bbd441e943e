//go:build !race

// The race detector makes sync.Pool drop items at random (fmt's printers
// come from one), so an exact allocation count does not hold under it.

package query

import (
	"bytes"
	"runtime/debug"
	"testing"

	"statdb/internal/core"
	"statdb/internal/shard"
	"statdb/internal/workload"
)

// TestExecutorAllocations holds a statement's allocations through
// Executor.Run to exact counts: a repeated compute on a memory-backed
// view (a Summary DB hit, so nearly all of it is the executor's own
// bookkeeping), the same statement under explain, and the same hit on a
// view sharded 4 ways. Collection is off while counting, as in the other
// exact allocation checks.
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
	if err := e.Run("materialize sv from micro project SALARY,AGE"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ShardView("sv", shard.Config{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		stmt string
		want float64
	}{
		{"compute mean SALARY on mv", 29},
		{"explain compute mean SALARY on mv", 47},
		// The same hit as on mv: measured first, it reads 29 too. Third,
		// it also pays one amortized growth of the executor's rings.
		{"compute mean SALARY on sv", 30},
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
