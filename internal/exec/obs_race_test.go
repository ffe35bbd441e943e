package exec

import (
	"sync"
	"testing"

	"statdb/internal/obs"
)

// TestPoolMetricsUnderRace drives an instrumented pool from many
// concurrent Run calls while a reader snapshots the registry — the
// race-detector proof that hot-path instrumentation (counters bumped by
// worker goroutines, the inflight gauge, snapshot reads) is safe. CI
// runs this under -race explicitly.
func TestPoolMetricsUnderRace(t *testing.T) {
	reg := obs.NewRegistry()
	p := New(4).WithMetrics(reg)

	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := reg.Snapshot()
				if s.Gauges[obs.MExecInflight] < 0 {
					t.Error("negative inflight gauge")
					return
				}
			}
		}
	}()

	const runs, n, chunk = 50, 4096 * 3, 1024
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums := make([]int64, len(Chunks(n, chunk)))
			err := p.Run(n, chunk, func(c int, r Range) error {
				var s int64
				for row := r.Lo; row < r.Hi; row++ {
					s += int64(row)
				}
				sums[c] = s
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()

	s := reg.Snapshot()
	chunksPerRun := int64(len(Chunks(n, chunk)))
	if got := s.Counters[obs.MExecChunks]; got != runs*chunksPerRun {
		t.Errorf("exec.chunks = %d, want %d", got, runs*chunksPerRun)
	}
	if got := s.Counters[obs.MExecRunsParallel]; got != runs {
		t.Errorf("exec.runs.parallel = %d, want %d", got, runs)
	}
	if got := s.Gauges[obs.MExecInflight]; got != 0 {
		t.Errorf("exec.inflight = %d after all runs returned, want 0", got)
	}
	if s.Counters[obs.MExecWorkersSpawned] == 0 {
		t.Error("no workers recorded")
	}
}

// TestSerialRunCountsSerial pins the serial-path accounting: a
// one-worker pool (or a one-chunk run) records runs.serial, spawns no
// workers, and leaves the inflight gauge untouched.
func TestSerialRunCountsSerial(t *testing.T) {
	reg := obs.NewRegistry()
	p := New(1).WithMetrics(reg)
	if err := p.Run(100, 10, func(int, Range) error { return nil }); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if s.Counters[obs.MExecRunsSerial] != 1 || s.Counters[obs.MExecRunsParallel] != 0 {
		t.Errorf("serial run misrouted: %v", s.Counters)
	}
	if s.Counters[obs.MExecChunks] != 10 {
		t.Errorf("exec.chunks = %d, want 10", s.Counters[obs.MExecChunks])
	}
	if s.Counters[obs.MExecWorkersSpawned] != 0 {
		t.Error("serial run spawned workers")
	}
}
