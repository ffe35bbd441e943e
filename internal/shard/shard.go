// Package shard implements the sharded scatter-gather storage backend —
// the paper's §4.3 "database machine" promoted from the cost model of
// internal/dbmachine to the system's actual scale-out story.
//
// A Store partitions a view's rows across N independent storage devices
// on the global chunk grid of internal/exec: chunk boundaries are
// exec.Chunks(rows, chunk), and a placement policy maps each global
// chunk to exactly one shard. Each shard owns its own storage.Device
// (checksummed pages, retry-with-backoff through its BufferPool,
// optionally wrapped in a FaultDevice), its own transposed colstore
// image of the rows it owns, and its own exec.Pool.
//
// Whole-column aggregates run as scatter-gather: every shard folds its
// chunks into per-global-chunk partial states in parallel, and the
// gather merges the partials in ascending global chunk order — exactly
// the merge order of exec.ColumnMoments/ColumnFreq, so the healthy-path
// answer is bit-identical to the unsharded parallel engine at the same
// chunk size.
//
// Failure is a first-class outcome, not an error. Each shard operation
// is bounded (pool retry, one shard-level retry, a virtual-tick budget
// standing in for a timeout); a shard that keeps failing transitions
// Healthy → Degraded → Down, and Down shards are skipped without I/O so
// degraded latency stays bounded. A lost shard degrades the answer: the
// gather substitutes the shard's last checkpointed partial aggregate
// (stale, with its shadow generation recorded — PR 2's checkpoint
// machinery) or, when none exists, reports the shard's rows missing.
// Either way the query completes with a Report carrying LoadReport-style
// provenance instead of failing.
package shard

import (
	"errors"
	"fmt"
	"sync"

	"statdb/internal/colstore"
	"statdb/internal/dataset"
	"statdb/internal/exec"
	"statdb/internal/obs"
	"statdb/internal/storage"
	"statdb/internal/summary"
)

// ErrShardDown is the sentinel wrapped by errors that mean "this shard
// (or every shard) is out of service". Match with errors.Is; scatter-
// gather queries only return it when no shard answered and no stale
// partial could stand in — a partial answer is a Report, not an error.
var ErrShardDown = errors.New("shard: shard down")

// Health is a shard's availability state.
type Health int

const (
	Healthy  Health = iota // answering normally
	Degraded               // recent failures below the down threshold
	Down                   // failed DownThreshold consecutive ops; skipped without I/O
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Down:
		return "down"
	}
	return fmt.Sprintf("health(%d)", int(h))
}

// Policy maps global chunks to shards.
type Policy uint8

const (
	// PlaceRoundRobin deals chunk c to shard c % N — interleaved, so a
	// lost shard thins the whole row range evenly.
	PlaceRoundRobin Policy = iota
	// PlaceRange gives each shard one contiguous block of chunks — a
	// lost shard removes one contiguous row interval.
	PlaceRange
)

func (p Policy) String() string {
	switch p {
	case PlaceRoundRobin:
		return "round-robin"
	case PlaceRange:
		return "range"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// shardFor places global chunk c of numChunks onto one of n shards.
func (p Policy) shardFor(c, numChunks, n int) int {
	if n <= 1 {
		return 0
	}
	if p == PlaceRange {
		return c * n / numChunks
	}
	return c % n
}

// Config sizes a sharded store. The zero value of every field has a
// sensible default.
type Config struct {
	Shards int // number of shards; default 1
	// Chunk is the global chunk size, shared with the exec grid; shard
	// boundaries always align to it. Default exec.DefaultChunk.
	Chunk  int
	Policy Policy
	// Workers sizes each shard's exec.Pool. Default 1 (serial folds per
	// shard; the scatter itself is the parallelism).
	Workers int
	// PoolPages is each shard's buffer-pool capacity. Default 64.
	PoolPages int
	// Devices supplies one device per shard (len must equal Shards when
	// set); wrap entries in storage.FaultDevice to inject faults. Nil
	// entries and a nil slice default to fresh MemDevices.
	Devices []storage.Device
	// ManifestDevice holds the manifest + checkpointed partials (shadow
	// generations). Nil defaults to a fresh MemDevice.
	ManifestDevice storage.Device
	// DownThreshold is the number of consecutive failed operations that
	// turns a shard Down (fast-fail). Default 2; minimum 1.
	DownThreshold int
	// OpTickBudget bounds the virtual ticks one shard may spend on one
	// scatter operation — the deterministic stand-in for a timeout. An
	// operation that runs past it is discarded as timed out even if it
	// eventually succeeded. 0 = unlimited.
	OpTickBudget int64
	// Registry receives the shard.* counters. Nil disables.
	Registry *obs.Registry
	// Events receives health transitions and degraded-answer events.
	Events *obs.EventLog
}

// shardState is one shard: its device stack, colstore image, pool, and
// health. Health fields are guarded by Store.mu; the device/pool/file
// are internally synchronized and safe for concurrent scatters.
type shardState struct {
	index int
	label string
	dev   storage.Device
	fault *storage.FaultDevice // non-nil when dev is fault-wrapped
	pool  *storage.BufferPool
	file  *colstore.File
	epool *exec.Pool
	// chunks are the global chunk ranges this shard owns, ascending;
	// the shard's rows are their concatenation in that order.
	chunks []chunkRef
	rows   int

	health  Health // guarded by Store.mu
	fails   int    // guarded by Store.mu; consecutive failures
	ckptGen uint64 // guarded by Store.mu; shadow generation of the last checkpointed partials
}

// chunkRef ties a global chunk to its slice of the shard-local rows.
type chunkRef struct {
	global   int // global chunk index
	localLo  int // offset into the shard's local row order
	localLen int
}

// Store is a sharded view backing. All exported methods are safe for
// concurrent use: scatters run lock-free against the internally
// synchronized shard stacks, and health/bookkeeping updates take mu.
type Store struct {
	mu     sync.Mutex
	name   string
	rows   int
	chunk  int
	policy Policy
	cols   []string // numeric column names, schema order
	schema *dataset.Schema
	shards []*shardState
	budget int64
	downAt int

	// Checkpointed partial aggregates + manifest, on the manifest device
	// with PR 2's shadow-generation commit protocol.
	manPool  *storage.BufferPool
	manStore *summary.Store
	partials *summary.DB

	met    storeMetrics
	events *obs.EventLog
	tracer *obs.Tracer
	reg    *obs.Registry
}

// storeMetrics caches the shard.* instrument handles (nil-safe).
type storeMetrics struct {
	scatters, degraded, stale *obs.Counter
	rowsMissing, failures     *obs.Counter
	retries, timeouts         *obs.Counter
	down                      *obs.Gauge
}

// New partitions ds across cfg.Shards devices and returns the store.
// The dataset is the copy of record being sharded (typically a view's
// materialized rows); each shard's colstore image holds exactly the
// rows of the chunks placed on it, concatenated in ascending global
// chunk order.
func New(name string, ds *dataset.Dataset, cfg Config) (*Store, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Chunk <= 0 {
		cfg.Chunk = exec.DefaultChunk
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.PoolPages <= 0 {
		cfg.PoolPages = 64
	}
	if cfg.DownThreshold <= 0 {
		cfg.DownThreshold = 2
	}
	if cfg.Devices != nil && len(cfg.Devices) != cfg.Shards {
		return nil, fmt.Errorf("shard: %d devices for %d shards", len(cfg.Devices), cfg.Shards)
	}
	rows := ds.Rows()
	ranges := exec.Chunks(rows, cfg.Chunk)
	s := &Store{
		name:   name,
		rows:   rows,
		chunk:  cfg.Chunk,
		policy: cfg.Policy,
		schema: ds.Schema(),
		budget: cfg.OpTickBudget,
		downAt: cfg.DownThreshold,
		events: cfg.Events,
		reg:    cfg.Registry,
	}
	for c := 0; c < ds.Schema().Len(); c++ {
		s.cols = append(s.cols, ds.Schema().At(c).Name)
	}
	if cfg.Registry != nil {
		s.met = storeMetrics{
			scatters:    cfg.Registry.Counter(obs.MShardScatters),
			degraded:    cfg.Registry.Counter(obs.MShardDegraded),
			stale:       cfg.Registry.Counter(obs.MShardStalePartials),
			rowsMissing: cfg.Registry.Counter(obs.MShardRowsMissing),
			failures:    cfg.Registry.Counter(obs.MShardFailures),
			retries:     cfg.Registry.Counter(obs.MShardRetries),
			timeouts:    cfg.Registry.Counter(obs.MShardTimeouts),
			down:        cfg.Registry.Gauge(obs.MShardDown),
		}
	}

	// Assign chunks, then build each shard's sub-dataset in ascending
	// global chunk order so local offsets recover global positions.
	perShard := make([][]int, cfg.Shards)
	for c := range ranges {
		i := cfg.Policy.shardFor(c, len(ranges), cfg.Shards)
		perShard[i] = append(perShard[i], c)
	}
	manifest := &Manifest{
		View:   name,
		Rows:   rows,
		Chunk:  cfg.Chunk,
		Policy: cfg.Policy,
		Shards: make([]ManifestShard, cfg.Shards),
	}
	for i := 0; i < cfg.Shards; i++ {
		var dev storage.Device
		if cfg.Devices != nil && cfg.Devices[i] != nil {
			dev = cfg.Devices[i]
		} else {
			dev = storage.NewMemDevice(storage.DefaultDiskCost())
		}
		sh := &shardState{
			index: i,
			label: fmt.Sprintf("shard%d", i),
			dev:   dev,
			epool: exec.New(cfg.Workers),
		}
		if fd, ok := dev.(*storage.FaultDevice); ok {
			sh.fault = fd
		}
		sh.pool = storage.NewBufferPool(dev, cfg.PoolPages)
		sh.pool.SetLabel(sh.label)

		sub := dataset.New(ds.Schema())
		sub.SetName(fmt.Sprintf("%s/%s", name, sh.label))
		lo := 0
		for _, c := range perShard[i] {
			r := ranges[c]
			for row := r.Lo; row < r.Hi; row++ {
				if err := sub.Append(ds.RowAt(row).Clone()); err != nil {
					return nil, fmt.Errorf("shard: building %s: %w", sh.label, err)
				}
			}
			sh.chunks = append(sh.chunks, chunkRef{global: c, localLo: lo, localLen: r.Len()})
			lo += r.Len()
		}
		sh.rows = lo
		file, err := colstore.Load(sh.pool, sub, colstore.Options{})
		if err != nil {
			return nil, fmt.Errorf("shard: loading %s: %w", sh.label, err)
		}
		sh.file = file
		s.shards = append(s.shards, sh)
		manifest.Shards[i] = ManifestShard{
			Rows:   lo,
			Chunks: append([]int(nil), perShard[i]...),
		}
	}

	// The manifest + partial-aggregate checkpoint store, committed with
	// PR 2's ping-pong shadow generations.
	manDev := cfg.ManifestDevice
	if manDev == nil {
		manDev = storage.NewMemDevice(storage.DefaultDiskCost())
	}
	s.manPool = storage.NewBufferPool(manDev, cfg.PoolPages)
	s.manPool.SetLabel("manifest")
	manStore, err := summary.NewStore(s.manPool)
	if err != nil {
		return nil, fmt.Errorf("shard: manifest store: %w", err)
	}
	s.manStore = manStore
	s.partials = summary.NewDB(nil)
	s.partials.StoreCustom(fnManifest, []string{name}, summary.TextOf(string(EncodeManifest(manifest))))
	if err := s.manStore.Checkpoint(s.partials); err != nil {
		return nil, fmt.Errorf("shard: manifest checkpoint: %w", err)
	}
	for _, sh := range s.shards {
		sh.ckptGen = s.manStore.Generation()
	}
	return s, nil
}

// SetTracer routes scatter spans (one per operation, one child per
// shard, charged in the shards' virtual ticks) into tr.
func (s *Store) SetTracer(tr *obs.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracer = tr
}

// Metrics merges every shard pool's registry (global storage.* families
// plus the label-namespaced storage.retry.* twins) and the manifest
// pool's into one snapshot, so a system roll-up sees per-shard
// accounting the way core.DBMS merges view pools.
func (s *Store) Metrics() obs.Snapshot {
	snap := obs.NewSnapshot()
	for _, sh := range s.shards {
		snap.Merge(sh.pool.Metrics().Snapshot())
	}
	snap.Merge(s.manPool.Metrics().Snapshot())
	return snap
}

// Name returns the view name the store backs.
func (s *Store) Name() string { return s.name }

// Rows returns the total row count across shards.
func (s *Store) Rows() int { return s.rows }

// Shards returns the shard count.
func (s *Store) Shards() int { return len(s.shards) }

// Chunk returns the global chunk size.
func (s *Store) Chunk() int { return s.chunk }

// ShardInfo is one shard's externally visible state.
type ShardInfo struct {
	Index    int
	Label    string
	Rows     int
	Chunks   int
	Health   Health
	Fails    int
	CkptGen  uint64
	Faults   storage.FaultCounts
	DevTicks int64
}

// Info snapshots every shard's health and fault ledger; the retry ledger
// is in Metrics, label-twinned per shard.
func (s *Store) Info() []ShardInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ShardInfo, len(s.shards))
	for i, sh := range s.shards {
		out[i] = ShardInfo{
			Index:    sh.index,
			Label:    sh.label,
			Rows:     sh.rows,
			Chunks:   len(sh.chunks),
			Health:   sh.health,
			Fails:    sh.fails,
			CkptGen:  sh.ckptGen,
			DevTicks: sh.dev.Stats().Ticks,
		}
		if sh.fault != nil {
			out[i].Faults = sh.fault.Faults()
		}
	}
	return out
}

// Health returns shard i's current state.
func (s *Store) Health(i int) Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.shards) {
		return Down
	}
	return s.shards[i].health
}

// SetDown forces shard i down (true) or revives it (false). Reviving
// clears the failure streak; the next operation re-probes the device.
//
//lint:allow test-only operator and test hook: the deterministic way to take a shard out of a gather
func (s *Store) SetDown(i int, down bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.shards) {
		return
	}
	sh := s.shards[i]
	if down {
		sh.health = Down
		sh.fails = s.downAt
	} else {
		sh.health = Healthy
		sh.fails = 0
	}
	s.updateDownGaugeLocked()
	s.logHealth(sh)
}

// recordOutcome applies one operation outcome to shard health. Caller
// does not hold mu.
func (s *Store) recordOutcome(sh *shardState, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := sh.health
	if ok {
		sh.fails = 0
		sh.health = Healthy
	} else {
		sh.fails++
		if sh.fails >= s.downAt {
			sh.health = Down
		} else {
			sh.health = Degraded
		}
	}
	if sh.health != prev {
		s.updateDownGaugeLocked()
		s.logHealth(sh)
	}
}

// updateDownGaugeLocked refreshes the shard.down gauge. Caller holds mu.
func (s *Store) updateDownGaugeLocked() {
	n := int64(0)
	for _, sh := range s.shards {
		if sh.health == Down {
			n++
		}
	}
	s.met.down.Set(n)
}

// logHealth emits a health-transition event. Caller holds mu.
func (s *Store) logHealth(sh *shardState) {
	sev := obs.SevInfo
	if sh.health != Healthy {
		sev = obs.SevWarn
	}
	s.events.Log(obs.Event{
		Sev:  sev,
		Kind: "shard",
		Msg:  fmt.Sprintf("view %s %s -> %s (fails=%d)", s.name, sh.label, sh.health, sh.fails),
	})
}
