package obs

// Canonical metric names. Every layer registers its instruments under
// these dotted names so snapshots merge into one coherent ledger and the
// `statdb stats` text format is stable. DESIGN.md's Observability
// section maps each family to the paper concept it measures.
const (
	// Execution engine (internal/exec).
	MExecChunks         = "exec.chunks"          // chunks scheduled onto the pool
	MExecRunsParallel   = "exec.runs.parallel"   // Run calls that fanned out
	MExecRunsSerial     = "exec.runs.serial"     // Run calls executed inline
	MExecWorkersSpawned = "exec.workers.spawned" // worker goroutines dispatched
	MExecInflight       = "exec.inflight"        // gauge: workers currently running
	// Run-aware compressed execution: the run-vs-row strategy decision
	// and the rows the row path decoded, measured at the fold.
	MExecRowsDecoded     = "exec.rows_decoded"      // rows decoded through the row path
	MExecRunStrategyHits = "exec.run_strategy_hits" // folds routed to the run kernels

	// Median/quantile windows (internal/medwin).
	MMedwinSlides   = "medwin.slides"   // updates absorbed by sliding the window
	MMedwinRebuilds = "medwin.rebuilds" // full regeneration passes (Section 4.2)

	// Query layer (internal/query).
	MQueryStatements = "query.statements" // statements parsed and executed
	MQueryErrors     = "query.errors"     // statements that failed

	// Per-verb SLO families (LabeledName with the query verb): the
	// rolling p50/p90/p99 and burn rates on /healthz derive from the
	// sampler's windowed deltas of these.
	MQueryTicks      = "query.ticks"           // histogram family: total ticks per statement
	MQueryVerbErrors = "query.verb_errors"     // counter family: failed statements
	MQueryBreaches   = "query.budget_breaches" // counter family: budget-aborted statements
	MQueryWallUs     = "query.wall_us"         // histogram family: wall latency per statement (µs), observed by wall-owning callers

	// Admission gate (core.Gate): contention made observable while the
	// engine serializes internally. Wait time is recorded twice — in
	// virtual ticks from the caller's virtual clock (deterministic
	// attribution) and in wall microseconds from the caller's wall shim
	// (what an analyst actually felt). The gate itself never reads a
	// clock; both are injected.
	MGateAdmitted  = "query.wait_admitted" // statements admitted through the gate
	MGateShed      = "query.wait_shed"     // statements rejected: queue full or session quota spent
	MGateQueue     = "query.wait_queue"    // gauge: statements queued right now
	MGateInflight  = "query.wait_inflight" // gauge: statements holding a slot right now
	MGateWaitTicks = "query.wait_ticks"    // histogram: virtual ticks spent queued
	MGateWaitWall  = "query.wait_wall_us"  // histogram: wall µs spent queued

	// Remote load sessions: `statdb serve` counts each session id its
	// POST /query endpoint sees first.
	MLoadSessions = "load.sessions"

	// Storage layer (internal/storage). Each buffer pool keeps these in
	// its own registry; core.DBMS merges them.
	MStoragePoolHits        = "storage.pool.hits"
	MStoragePoolMisses      = "storage.pool.misses"
	MStoragePoolEvictions   = "storage.pool.evictions"
	MStoragePoolEvictDirty  = "storage.pool.evict_dirty"
	MStoragePoolEvictFailed = "storage.pool.evict_write_failed"
	MStoragePageReads       = "storage.page.reads"
	MStoragePageWrites      = "storage.page.writes"
	MStorageChecksumFailed  = "storage.page.checksum_failed"
	MStorageRetryAttempts   = "storage.retry.attempts"
	MStorageRetryRecovered  = "storage.retry.recovered"
	MStorageRetryExhausted  = "storage.retry.exhausted"
	MStorageRetryBackoff    = "storage.retry.backoff_ticks"
	MStorageFlushPages      = "storage.flush.pages"
	MStorageFlushFailed     = "storage.flush.failed"

	// Summary Database (internal/summary).
	MSummaryHits        = "summary.hits"
	MSummaryMisses      = "summary.misses"
	MSummaryStaleRefill = "summary.stale_refill"
	MSummaryIncremental = "summary.incremental"
	MSummarySlides      = "summary.slides"
	MSummaryRebuilds    = "summary.rebuilds"
	MSummaryRecomputes  = "summary.recomputes"
	MSummaryPasses      = "summary.passes"

	// View layer (internal/view).
	MViewColumnScans = "view.column_scans"

	// Sharded scatter-gather backend (internal/shard). Counters are
	// engine-wide; per-shard attribution comes from the labeled
	// storage.retry.* families (LabeledName) and the shard health report.
	MShardScatters      = "shard.scatters"       // scatter-gather operations run
	MShardDegraded      = "shard.degraded"       // operations answered degraded
	MShardStalePartials = "shard.stale_partials" // stale checkpointed partials merged
	MShardRowsMissing   = "shard.rows_missing"   // rows absent from degraded answers
	MShardFailures      = "shard.failures"       // per-shard operation failures
	MShardRetries       = "shard.retries"        // shard-level operation retries
	MShardDown          = "shard.down"           // gauge: shards currently down
)

// LabeledName derives a per-device metric name from a canonical family
// and a free-form label: family + "." + label, with the label coerced
// into the canonical [a-z0-9_]+ segment shape (upper case folded,
// anything else becomes '_', empty labels become "dev"). The result is
// always a valid dotted canonical name, so labeled registrations can
// never break Prometheus exposition — which is why the metric-names
// vet rule accepts LabeledName(<literal or obs.M* constant>, x) calls.
func LabeledName(family, label string) string {
	b := make([]byte, 0, len(label))
	for i := 0; i < len(label); i++ {
		c := label[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_':
			b = append(b, c)
		case c >= 'A' && c <= 'Z':
			b = append(b, c-'A'+'a')
		default:
			b = append(b, '_')
		}
	}
	if len(b) == 0 {
		b = append(b, "dev"...)
	}
	return family + "." + string(b)
}

// QueryTicksBounds are the fixed bucket bounds of the per-verb
// query.ticks histograms (total virtual ticks per statement): cache hits
// land in the first bucket, whole-column recomputes in the middle,
// sharded scans at the top.
func QueryTicksBounds() []int64 { return []int64{100, 1_000, 10_000, 100_000, 1_000_000} }

// WaitTicksBounds are the fixed bucket bounds of the query.wait_ticks
// histogram (virtual ticks spent queued at the admission gate). The
// bottom bucket is "admitted without waiting"; the top is a queue many
// whole-column recomputes deep.
func WaitTicksBounds() []int64 { return []int64{0, 1_000, 10_000, 100_000, 1_000_000, 10_000_000} }

// WallUsBounds are the fixed bucket bounds of the wall-microsecond
// histograms (query.wall_us.<verb>, query.wait_wall_us): 100µs cache
// hits through multi-second stalls.
func WallUsBounds() []int64 {
	return []int64{100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000}
}

// baselineCounters lists every canonical counter, so a fresh registry
// exports the full (all-zero) family set and the text format's shape
// does not depend on which subsystems happened to run.
var baselineCounters = []string{
	MExecChunks, MExecRunsParallel, MExecRunsSerial, MExecWorkersSpawned,
	MExecRowsDecoded, MExecRunStrategyHits,
	MMedwinSlides, MMedwinRebuilds,
	MQueryStatements, MQueryErrors,
	MGateAdmitted, MGateShed,
	MLoadSessions,
	MStoragePoolHits, MStoragePoolMisses, MStoragePoolEvictions,
	MStoragePoolEvictDirty, MStoragePoolEvictFailed,
	MStoragePageReads, MStoragePageWrites, MStorageChecksumFailed,
	MStorageRetryAttempts, MStorageRetryRecovered, MStorageRetryExhausted,
	MStorageRetryBackoff, MStorageFlushPages, MStorageFlushFailed,
	MSummaryHits, MSummaryMisses, MSummaryStaleRefill, MSummaryIncremental,
	MSummarySlides, MSummaryRebuilds, MSummaryRecomputes, MSummaryPasses,
	MViewColumnScans,
	MShardScatters, MShardDegraded, MShardStalePartials, MShardRowsMissing,
	MShardFailures, MShardRetries,
}

// RegisterBaseline pre-registers the canonical metric families in r, so
// exports have a machine-independent shape: a counter that never fired
// still prints as 0 instead of being absent.
func RegisterBaseline(r *Registry) {
	if r == nil {
		return
	}
	for _, name := range baselineCounters {
		r.Counter(name)
	}
	r.Gauge(MExecInflight)
	r.Gauge(MShardDown)
	r.Gauge(MGateQueue)
	r.Gauge(MGateInflight)
	r.Histogram(MGateWaitTicks, WaitTicksBounds())
	r.Histogram(MGateWaitWall, WallUsBounds())
}
