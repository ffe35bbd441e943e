// Package shard implements the sharded scatter-gather storage backend —
// the paper's §4.3 "database machine" promoted from the cost model of
// internal/dbmachine to the system's actual scale-out story.
//
// A Store partitions a view's rows across N independent storage devices
// on the one chunk grid of internal/exec: chunk boundaries are
// exec.Chunks(rows, exec.DefaultChunk), the grid every row fold of a
// column cuts, and global chunk c lives on shard c % N. Each shard owns
// its own storage.Device (checksummed pages, retry-with-backoff through
// its BufferPool, optionally wrapped in a FaultDevice) and its own
// transposed colstore image of the rows it owns.
//
// Whole-column aggregates run as scatter-gather: every shard folds its
// chunks into per-global-chunk partial states in parallel, and the
// gather merges the partials in ascending global chunk order — exactly
// the merge order of exec.ColumnFold, so the healthy-path answer is
// bit-identical to the unsharded fold at any pool width, inline
// included.
//
// Failure is a first-class outcome, not an error. Each shard operation
// is bounded (pool retry, one shard-level retry); a shard that keeps
// failing transitions Healthy → Degraded → Down, and Down shards are
// skipped without I/O so degraded latency stays bounded. A lost shard
// degrades the answer: the gather substitutes the shard's last
// checkpointed partial aggregate (stale, with its shadow generation
// recorded — PR 2's checkpoint machinery) or, when none exists, reports
// the shard's rows missing. Either way the query completes with a Report
// carrying LoadReport-style provenance instead of failing.
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
	Degraded               // recent failures, fewer than downAt
	Down                   // failed downAt consecutive ops; skipped without I/O
)

// downAt is the number of consecutive failed operations that turns a
// shard Down (fast-fail).
const downAt = 2

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

// Config sizes a sharded store. The zero value of every field has a
// sensible default.
type Config struct {
	Shards int // number of shards; default 1
	// PoolPages is each shard's buffer-pool capacity. Default 64.
	PoolPages int
	// Devices supplies one device per shard (len must equal Shards when
	// set); wrap entries in storage.FaultDevice to inject faults. Nil
	// entries and a nil slice default to fresh MemDevices.
	Devices []storage.Device
	// ManifestDevice holds the manifest + checkpointed partials (shadow
	// generations). Nil defaults to a fresh MemDevice.
	ManifestDevice storage.Device
	// Registry receives the shard.* counters. Nil disables.
	Registry *obs.Registry
}

// shardState is one shard: its device stack, colstore image and
// health. Health fields are guarded by Store.mu; the device/pool/file
// are internally synchronized and safe for concurrent scatters.
type shardState struct {
	index int
	label string
	dev   storage.Device
	fault *storage.FaultDevice // non-nil when dev is fault-wrapped
	pool  *storage.BufferPool
	file  *colstore.File
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
	schema *dataset.Schema
	shards []*shardState

	// Checkpointed partial aggregates + manifest, on the manifest device
	// with PR 2's shadow-generation commit protocol.
	manPool  *storage.BufferPool
	manStore *summary.Store
	partials *summary.DB

	met    storeMetrics
	tracer *obs.Tracer
	reg    *obs.Registry
}

// storeMetrics caches the shard.* instrument handles (nil-safe).
type storeMetrics struct {
	scatters, degraded, stale *obs.Counter
	rowsMissing, failures     *obs.Counter
	retries                   *obs.Counter
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
	if cfg.PoolPages <= 0 {
		cfg.PoolPages = 64
	}
	if cfg.Devices != nil && len(cfg.Devices) != cfg.Shards {
		return nil, fmt.Errorf("shard: %d devices for %d shards", len(cfg.Devices), cfg.Shards)
	}
	rows := ds.Rows()
	ranges := exec.Chunks(rows, exec.DefaultChunk)
	s := &Store{
		name:   name,
		rows:   rows,
		schema: ds.Schema(),
		reg:    cfg.Registry,
	}
	if cfg.Registry != nil {
		s.met = storeMetrics{
			scatters:    cfg.Registry.Counter(obs.MShardScatters),
			degraded:    cfg.Registry.Counter(obs.MShardDegraded),
			stale:       cfg.Registry.Counter(obs.MShardStalePartials),
			rowsMissing: cfg.Registry.Counter(obs.MShardRowsMissing),
			failures:    cfg.Registry.Counter(obs.MShardFailures),
			retries:     cfg.Registry.Counter(obs.MShardRetries),
			down:        cfg.Registry.Gauge(obs.MShardDown),
		}
	}

	// Assign chunks, then build each shard's sub-dataset in ascending
	// global chunk order so local offsets recover global positions.
	perShard := make([][]int, cfg.Shards)
	for c := range ranges {
		perShard[c%cfg.Shards] = append(perShard[c%cfg.Shards], c)
	}
	manifest := &Manifest{
		View:   name,
		Rows:   rows,
		Chunk:  exec.DefaultChunk,
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
		}
		if fd, ok := dev.(*storage.FaultDevice); ok {
			sh.fault = fd
		}
		sh.pool = storage.NewBufferPool(dev, cfg.PoolPages)
		sh.pool.SetLabel(sh.label)

		// Never nil, so a shard that owns no chunk takes no row.
		rows := make([]int, 0, len(perShard[i])*exec.DefaultChunk)
		for _, c := range perShard[i] {
			sh.chunks = append(sh.chunks, chunkRef{global: c, localLo: len(rows), localLen: ranges[c].Len()})
			for row := ranges[c].Lo; row < ranges[c].Hi; row++ {
				rows = append(rows, row)
			}
		}
		sh.rows = len(rows)
		sub, err := ds.Take(ds.Schema(), nil, rows)
		if err != nil {
			return nil, fmt.Errorf("shard: building %s: %w", sh.label, err)
		}
		sub.SetName(fmt.Sprintf("%s/%s", name, sh.label))
		file, err := colstore.Load(sh.pool, sub, colstore.Options{})
		if err != nil {
			return nil, fmt.Errorf("shard: loading %s: %w", sh.label, err)
		}
		sh.file = file
		s.shards = append(s.shards, sh)
		manifest.Shards[i] = ManifestShard{
			Rows:   sh.rows,
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
	for i := range s.shards {
		s.shards[i].ckptGen = s.manStore.Generation()
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
		sh.fails = downAt
	} else {
		sh.health = Healthy
		sh.fails = 0
	}
	s.updateDownGaugeLocked()
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
		if sh.fails >= downAt {
			sh.health = Down
		} else {
			sh.health = Degraded
		}
	}
	if sh.health != prev {
		s.updateDownGaugeLocked()
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
