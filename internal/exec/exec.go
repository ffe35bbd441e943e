// Package exec is the shared chunked-execution engine: a worker pool
// that drives column-shaped work — the "few columns, all rows" access
// pattern of Section 2.6 — as a partition of fixed-size chunks folded in
// parallel and merged in order. The statistical operators, the relational
// partition-then-merge paths and Summary-Database recomputation all run
// through it (experiment E13 measures the speedup and its crossover).
//
// Determinism contract: chunk boundaries depend only on (n, chunk size),
// never on the worker count or scheduling, and callers merge partial
// states in ascending chunk order. Every row fold of a column — inline,
// through a pool of any width, gathered from shards or run on the
// database machine — cuts it on one grid, Chunks(n, DefaultChunk), with
// FoldMoments as the chunk kernel, so its moments are one answer, bit
// for bit, however it is scheduled; a column of at most one chunk is the
// serial operators of stats/desc.go exactly. Its frequency table is each
// chunk's keys radix-sorted and run-length-encoded (FoldFreq), the chunk
// tables merged as sorted runs (MergeFreq): counts add, so the table is
// exact whatever the cut. A nil pool, or a pool of
// one worker, runs the same chunks inline on the caller's goroutine.
package exec

import (
	"runtime"
	"sync"
	"sync/atomic"

	"statdb/internal/obs"
)

// DefaultChunk is the default number of rows folded per task. Large
// enough that per-chunk dispatch overhead vanishes against the fold,
// small enough that a handful of chunks exist per worker for balance.
const DefaultChunk = 4096

// Range is one half-open chunk [Lo, Hi) of a row interval.
type Range struct{ Lo, Hi int }

// Len returns the number of rows in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Chunks partitions [0, n) into fixed-size ranges. size <= 0 uses
// DefaultChunk. n == 0 yields no ranges. Boundaries depend only on
// (n, size) — the fixed-chunk half of the determinism contract.
func Chunks(n, size int) []Range {
	if size <= 0 {
		size = DefaultChunk
	}
	if n <= 0 {
		return nil
	}
	out := make([]Range, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, Range{Lo: lo, Hi: hi})
	}
	return out
}

// Pool is a bounded worker pool. The zero value is not usable; construct
// with New. Pools are stateless between Run calls and safe for concurrent
// use.
type Pool struct {
	workers int
	met     poolMetrics
}

// poolMetrics caches the pool's instrument handles. The zero value
// (nil handles) no-ops, so an unwired pool pays only nil checks.
type poolMetrics struct {
	chunks      *obs.Counter
	runParallel *obs.Counter
	runSerial   *obs.Counter
	spawned     *obs.Counter
	inflight    *obs.Gauge
}

// New returns a pool of the given width. workers <= 0 selects
// runtime.GOMAXPROCS(0); workers == 1 is the serial engine.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool width.
func (p *Pool) Workers() int { return p.workers }

// WithMetrics wires the pool's scheduling counters (exec.* families)
// into reg and returns the pool for chaining. A nil registry leaves the
// pool uninstrumented.
func (p *Pool) WithMetrics(reg *obs.Registry) *Pool {
	p.met = poolMetrics{
		chunks:      reg.Counter(obs.MExecChunks),
		runParallel: reg.Counter(obs.MExecRunsParallel),
		runSerial:   reg.Counter(obs.MExecRunsSerial),
		spawned:     reg.Counter(obs.MExecWorkersSpawned),
		inflight:    reg.Gauge(obs.MExecInflight),
	}
	return p
}

// Run partitions [0, n) into fixed-size chunks and invokes fn once per
// chunk, passing the chunk index and its range. fn must be safe to call
// concurrently and should deposit its partial result in a per-chunk slot
// indexed by c; Run never invokes fn twice for the same chunk.
//
// With one worker or one chunk, every fn call happens inline on the
// caller's goroutine in ascending chunk order — the serial path.
// Otherwise min(workers, chunks) goroutines pull chunk indices from a
// shared counter. The returned error is the error of the lowest-indexed
// failing chunk, independent of scheduling; other chunks still run.
func (p *Pool) Run(n, chunk int, fn func(c int, r Range) error) error {
	ranges := Chunks(n, chunk)
	return p.RunRanges(ranges, fn)
}

// Fanout is the number of goroutines a run over nranges ranges uses: the
// pool width capped by the range count. 1 is the serial path (every
// range inline on the caller), 0 means there is nothing to run.
func (p *Pool) Fanout(nranges int) int {
	if p.workers < nranges {
		return p.workers
	}
	return nranges
}

// RunRanges is Run over pre-computed (e.g. page-aligned) ranges.
func (p *Pool) RunRanges(ranges []Range, fn func(c int, r Range) error) error {
	if len(ranges) == 0 {
		return nil
	}
	workers := p.Fanout(len(ranges))
	p.met.chunks.Add(int64(len(ranges)))
	if workers <= 1 {
		p.met.runSerial.Inc()
		for c, r := range ranges {
			if err := fn(c, r); err != nil {
				return err
			}
		}
		return nil
	}
	p.met.runParallel.Inc()
	p.met.spawned.Add(int64(workers))
	errs := make([]error, len(ranges))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			p.met.inflight.Add(1)
			defer p.met.inflight.Add(-1)
			for {
				c := int(next.Add(1)) - 1
				if c >= len(ranges) {
					return
				}
				errs[c] = fn(c, ranges[c])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Cost models the engine's virtual-tick economics, mirroring the storage
// and tape cost models so experiment E13 is deterministic across
// machines: folding a cell costs CellCost, dispatching one worker costs
// SpawnCost, and folding one partial state into the accumulated result
// costs MergeCost. The constants make the paper-shaped tradeoff visible:
// fan-out pays off only once the per-worker share of the fold dwarfs the
// dispatch-and-merge overhead.
type Cost struct {
	CellCost  int64 // folding one cell into a partial state
	SpawnCost int64 // dispatching one worker goroutine
	MergeCost int64 // merging one chunk's partial state
}

// DefaultCost is the engine cost model used by the experiments.
func DefaultCost() Cost {
	return Cost{CellCost: 1, SpawnCost: 400, MergeCost: 16}
}

// SerialTicks is the cost of folding n cells on one worker with no
// dispatch or merge overhead — the pre-engine baseline.
func (c Cost) SerialTicks(n int) int64 {
	return int64(n) * c.CellCost
}

// ParallelTicks is the critical-path cost of folding n cells split into
// fixed-size chunks across the given worker count: the most-loaded
// worker's fold plus worker dispatch plus the ordered merge of every
// chunk's partial state. workers <= 1 degenerates to SerialTicks.
func (c Cost) ParallelTicks(n, chunk, workers int) int64 {
	if workers <= 1 {
		return c.SerialTicks(n)
	}
	ranges := Chunks(n, chunk)
	if len(ranges) == 0 {
		return 0
	}
	if workers > len(ranges) {
		workers = len(ranges)
	}
	// Equal-size chunks (bar the last) make round-robin assignment the
	// same critical path as any greedy scheduler: the max worker load.
	loads := make([]int64, workers)
	for i, r := range ranges {
		loads[i%workers] += int64(r.Len()) * c.CellCost
	}
	crit := loads[0]
	for _, l := range loads[1:] {
		if l > crit {
			crit = l
		}
	}
	return crit + int64(workers)*c.SpawnCost + int64(len(ranges))*c.MergeCost
}
