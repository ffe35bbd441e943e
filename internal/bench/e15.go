package bench

import (
	"fmt"

	"statdb/internal/exec"
	"statdb/internal/obs"
)

// E15ObsOverhead counts what the observability layer records on the hot
// path. The workload is E13's whole-column fold over the SALARY column
// with 4 workers — one exec.ColumnFold of the moments and the frequency
// table, the fold a Summary Database fill runs, and the case where
// per-row instrumentation would show up — run once per column size on a
// pool wired to a live registry. Every counter event the fold records is
// tallied and checked against the engine's own schedule: per pool run,
// one event per chunk (exec.Chunks), one for the run, and one per worker
// spawned (Pool.Fanout). The events therefore grow with chunks, never
// with rows.
func E15ObsOverhead() (*Table, error) {
	t := &Table{
		ID:     "E15",
		Title:  "Observability cost: counter events per whole-column fold with a live registry (engine schedule counts)",
		Claim:  "instrumentation charges per chunk and per run, never per row, so a live registry's work on a whole-column fold tracks chunks, not rows",
		Header: []string{"rows", "chunks", "workers", "pool runs", "counter events", "per run", "chunks + run + workers"},
	}
	const workers = 4
	sizes := []int{8192, 25600, 102400}
	events := make([]int64, len(sizes))
	broken := 0
	for i, n := range sizes {
		xs, valid, err := salaryColumn(n)
		if err != nil {
			return nil, err
		}
		reg := obs.NewRegistry()
		p := exec.New(workers).WithMetrics(reg)
		exec.ColumnFold(p, xs, valid, exec.DefaultChunk, true, true)
		snap := reg.Snapshot()
		for _, v := range snap.Counters {
			events[i] += v
		}
		runs := snap.Counters[obs.MExecRunsParallel] + snap.Counters[obs.MExecRunsSerial]
		chunks := len(exec.Chunks(n, exec.DefaultChunk))
		spawned := p.Fanout(chunks)
		if spawned <= 1 {
			spawned = 0 // the serial path runs inline and spawns nothing
		}
		schedule := int64(chunks + 1 + spawned)
		if runs == 0 || events[i] != runs*schedule {
			broken++
		}
		perRun := int64(0)
		if runs > 0 {
			perRun = events[i] / runs
		}
		t.AddRow(n, chunks, spawned, runs, events[i], perRun, schedule)
	}

	last := len(sizes) - 1
	t.Finding = fmt.Sprintf(
		"a live registry records %d counter events on the %d-row fold and %d on the %d-row fold: rows grew %s and "+
			"events %s, because every pool run records exactly one event per chunk, one for the run and one per worker "+
			"spawned — instrumentation tracks chunks, never rows, which is why the registry is always on rather than build-tagged",
		events[0], sizes[0], events[last], sizes[last],
		ratio(float64(sizes[last]), float64(sizes[0])), ratio(float64(events[last]), float64(events[0])))
	if broken > 0 {
		t.Finding += fmt.Sprintf(" [CLAIM FAILED: %d of %d sizes recorded events off the engine's chunk + run + worker schedule]",
			broken, len(sizes))
	}
	return t, nil
}
