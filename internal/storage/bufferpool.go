package storage

import (
	"errors"
	"fmt"
	"sync"

	"statdb/internal/obs"
)

// BufferPool caches device pages in memory with LRU replacement.
// The paper notes (Section 2.4) that packages relying on the virtual
// memory manager suffer because "memory is managed according to some
// scheme which is not necessarily suited to the access patterns exhibited
// for statistical databases"; an explicit pool makes the replacement
// policy a controllable part of the system.
//
// The pool is the storage layer's fault boundary:
//
//   - pages read on a Fetch miss are checksum-verified (VerifyPageBuf),
//     so device corruption surfaces as a CorruptError at the fetch, not
//     as garbage decoded downstream;
//   - dirty pages are sealed (checksummed) before every write back to
//     the device;
//   - transient device errors (errors.Is ErrTransient) are retried with
//     bounded doubling backoff, charged as virtual ticks through the
//     device's TickCharger so recovery cost lands in the same ledger as
//     the I/O it recovers.
//
// The pool owns at most capacity frames, each with one PageSize buffer,
// resident and free together. A miss into a full pool reads into the
// victim's buffer, and a read that fails puts its frame on the free list,
// so after warm-up neither a hit nor a miss allocates. The Page a Fetch
// or NewPage returns is held in its frame: its bytes are the page's only
// until the matching Unpin, after which the frame may hold another page.
//
// The pool serializes its own state with a mutex so the parallel
// execution engine may fetch through one pool from several goroutines;
// per-page latching is still the caller's concern (pages returned by
// Fetch alias pool frames).
type BufferPool struct {
	mu       sync.Mutex
	dev      Device
	capacity int
	frames   map[PageID]*frame // resident frames
	lru      frame             // sentinel of the resident ring: lru.next is the most recent
	free     []*frame          // frames with a buffer and no page
	retry    RetryPolicy
	// Metrics live in a per-pool obs registry under the canonical
	// storage.* names, so per-pool accounting stays exact and pools roll
	// up into a system-wide snapshot via Snapshot.Merge (core.DBMS does
	// this).
	reg *obs.Registry
	met poolMetrics
	lab labeledRetry
}

// labeledRetry mirrors the retry ledger under per-label names (see
// SetLabel). Nil handles no-op, so an unlabeled pool pays nothing.
type labeledRetry struct {
	retries, recovered, exhausted, backoffTicks *obs.Counter
}

// poolMetrics caches the pool's counter handles so hot paths never
// resolve names under the registry lock.
type poolMetrics struct {
	hits, misses                        *obs.Counter
	evictions, evictDirty, evictFailed  *obs.Counter
	pageReads, pageWrites, checksumFail *obs.Counter
	retries, recovered, exhausted       *obs.Counter
	backoffTicks, flushPages, flushFail *obs.Counter
}

func newPoolMetrics(reg *obs.Registry) poolMetrics {
	return poolMetrics{
		hits:         reg.Counter(obs.MStoragePoolHits),
		misses:       reg.Counter(obs.MStoragePoolMisses),
		evictions:    reg.Counter(obs.MStoragePoolEvictions),
		evictDirty:   reg.Counter(obs.MStoragePoolEvictDirty),
		evictFailed:  reg.Counter(obs.MStoragePoolEvictFailed),
		pageReads:    reg.Counter(obs.MStoragePageReads),
		pageWrites:   reg.Counter(obs.MStoragePageWrites),
		checksumFail: reg.Counter(obs.MStorageChecksumFailed),
		retries:      reg.Counter(obs.MStorageRetryAttempts),
		recovered:    reg.Counter(obs.MStorageRetryRecovered),
		exhausted:    reg.Counter(obs.MStorageRetryExhausted),
		backoffTicks: reg.Counter(obs.MStorageRetryBackoff),
		flushPages:   reg.Counter(obs.MStorageFlushPages),
		flushFail:    reg.Counter(obs.MStorageFlushFailed),
	}
}

type frame struct {
	id         PageID
	page       Page // wraps the frame's one PageSize buffer
	pins       int
	dirty      bool
	prev, next *frame // links in the pool's LRU ring
}

// unlink takes f out of the LRU ring.
func (f *frame) unlink() {
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = nil, nil
}

// pushFront makes f the most recently used resident frame.
func (bp *BufferPool) pushFront(f *frame) {
	f.prev, f.next = &bp.lru, bp.lru.next
	f.prev.next, f.next.prev = f, f
}

// RetryPolicy bounds transient-error retries. An operation is attempted
// at most MaxAttempts times; before retry k (1-based) the pool charges
// BackoffTicks<<(k-1) virtual ticks to the device.
type RetryPolicy struct {
	MaxAttempts  int
	BackoffTicks int64
}

// DefaultRetryPolicy is the policy used unless overridden: four attempts
// with backoff 8, 16, 32 ticks — bounded, and cheap next to a seek.
func DefaultRetryPolicy() RetryPolicy { return RetryPolicy{MaxAttempts: 4, BackoffTicks: 8} }

// NewBufferPool creates a pool of capacity pages over dev. Every pool
// carries its own metrics registry (see Metrics).
func NewBufferPool(dev Device, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	reg := obs.NewRegistry()
	bp := &BufferPool{
		dev:      dev,
		capacity: capacity,
		frames:   make(map[PageID]*frame, capacity),
		retry:    DefaultRetryPolicy(),
		reg:      reg,
		met:      newPoolMetrics(reg),
	}
	bp.lru.prev, bp.lru.next = &bp.lru, &bp.lru
	return bp
}

// Metrics exposes the pool's metrics registry (storage.* families).
// Callers aggregating several pools merge the snapshots.
func (bp *BufferPool) Metrics() *obs.Registry { return bp.reg }

// SetLabel additionally registers label-namespaced twins of the retry
// counters (storage.retry.<class>.<label>) in the pool's registry.
// When many per-shard pools merge into one system snapshot the global
// storage.retry.* families sum across shards; the labeled twins keep
// each shard's recovery activity individually attributable.
func (bp *BufferPool) SetLabel(label string) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.lab = labeledRetry{
		retries:      bp.reg.Counter(obs.LabeledName(obs.MStorageRetryAttempts, label)),
		recovered:    bp.reg.Counter(obs.LabeledName(obs.MStorageRetryRecovered, label)),
		exhausted:    bp.reg.Counter(obs.LabeledName(obs.MStorageRetryExhausted, label)),
		backoffTicks: bp.reg.Counter(obs.LabeledName(obs.MStorageRetryBackoff, label)),
	}
}

// Device returns the device the pool is caching.
func (bp *BufferPool) Device() Device { return bp.dev }

// withRetry runs op, retrying while it fails with ErrTransient, up to
// the policy's attempt budget, charging doubling backoff through the
// device's TickCharger. Non-transient errors return immediately; once the
// budget is spent, the last error returns wrapped with the number of
// attempts it took. The caller holds bp.mu.
func (bp *BufferPool) withRetry(op func() error) error {
	attempts := bp.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	backoff := bp.retry.BackoffTicks
	var err error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			bp.met.retries.Inc()
			bp.met.backoffTicks.Add(backoff)
			bp.lab.retries.Inc()
			bp.lab.backoffTicks.Add(backoff)
			if tc, ok := bp.dev.(TickCharger); ok {
				tc.ChargeTicks(backoff)
			}
			backoff *= 2
		}
		err = op()
		if err == nil {
			if a > 0 {
				bp.met.recovered.Inc()
				bp.lab.recovered.Inc()
			}
			return nil
		}
		if !errors.Is(err, ErrTransient) {
			return err
		}
	}
	bp.met.exhausted.Inc()
	bp.lab.exhausted.Inc()
	return fmt.Errorf("%w (gave up after %d attempts)", err, attempts)
}

// readPage reads id into buf with retry and checksum verification.
func (bp *BufferPool) readPage(id PageID, buf []byte) error {
	if err := bp.withRetry(func() error { return bp.dev.ReadPage(id, buf) }); err != nil {
		return err
	}
	bp.met.pageReads.Inc()
	if err := VerifyPageBuf(buf, id); err != nil {
		bp.met.checksumFail.Inc()
		return err
	}
	return nil
}

// ReadDevicePage reads the device image of page id into buf, bypassing
// the frames — a cached frame would mask on-device damage — but not the
// pool's ledger: the read is retried, verified and counted like a Fetch
// miss. Store verification scans use it.
func (bp *BufferPool) ReadDevicePage(id PageID, buf []byte) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.readPage(id, buf)
}

// writePage seals and writes buf with retry.
func (bp *BufferPool) writePage(id PageID, buf []byte) error {
	SealPage(buf)
	if err := bp.withRetry(func() error { return bp.dev.WritePage(id, buf) }); err != nil {
		return err
	}
	bp.met.pageWrites.Inc()
	return nil
}

// Fetch pins page id and returns it. The caller must Unpin it, and may
// use the page only until then. A page whose image fails checksum
// verification is not cached; the CorruptError identifies it.
func (bp *BufferPool) Fetch(id PageID) (*Page, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f, ok := bp.frames[id]; ok {
		bp.met.hits.Inc()
		f.unlink()
		bp.pushFront(f)
		f.pins++
		return &f.page, nil
	}
	bp.met.misses.Inc()
	f, err := bp.grab()
	if err != nil {
		return nil, err
	}
	if err := bp.readPage(id, f.page.buf); err != nil {
		bp.free = append(bp.free, f)
		return nil, err
	}
	bp.install(f, id, false)
	return &f.page, nil
}

// NewPage allocates a fresh device page, pins it, and returns it
// initialized and marked dirty, on the same terms as Fetch.
func (bp *BufferPool) NewPage() (PageID, *Page, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	id, err := bp.dev.Allocate()
	if err != nil {
		return InvalidPage, nil, err
	}
	f, err := bp.grab()
	if err != nil {
		return InvalidPage, nil, err
	}
	f.page.Init()
	bp.install(f, id, true)
	return id, &f.page, nil
}

// install makes f the resident, pinned, most recent frame of page id.
// The caller holds bp.mu.
func (bp *BufferPool) install(f *frame, id PageID, dirty bool) {
	f.id, f.pins, f.dirty = id, 1, dirty
	bp.frames[id] = f
	bp.pushFront(f)
}

// grab returns a frame to hold a page that is not resident: a free one,
// a new one while the pool owns fewer than capacity, or else the least
// recently used unpinned frame, evicted — written back first if dirty.
// The frame is on no list; the caller installs it or frees it. The
// caller holds bp.mu.
func (bp *BufferPool) grab() (*frame, error) {
	if n := len(bp.free); n > 0 {
		f := bp.free[n-1]
		bp.free = bp.free[:n-1]
		return f, nil
	}
	if len(bp.frames) < bp.capacity {
		return &frame{page: Page{buf: make([]byte, PageSize)}}, nil
	}
	victim := bp.lru.prev
	for victim != &bp.lru && victim.pins > 0 {
		victim = victim.prev
	}
	if victim == &bp.lru {
		return nil, fmt.Errorf("storage: buffer pool of %d frames has no unpinned page", bp.capacity)
	}
	if victim.dirty {
		bp.met.evictDirty.Inc()
		if err := bp.writePage(victim.id, victim.page.buf); err != nil {
			// The frame stays resident and dirty; the metric records
			// the page identity the error string reports.
			bp.met.evictFailed.Inc()
			return nil, fmt.Errorf("storage: evict page %d: %w", victim.id, err)
		}
	}
	bp.met.evictions.Inc()
	victim.unlink()
	delete(bp.frames, victim.id)
	return victim, nil
}

// Unpin releases one pin on page id; dirty records that the caller
// modified the page.
func (bp *BufferPool) Unpin(id PageID, dirty bool) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[id]
	if !ok {
		return fmt.Errorf("storage: unpin of unbuffered page %d", id)
	}
	if f.pins == 0 {
		return fmt.Errorf("storage: unpin of unpinned page %d", id)
	}
	f.pins--
	if dirty {
		f.dirty = true
	}
	return nil
}

// FlushAll writes every dirty buffered page back to the device. It
// attempts all of them even when some fail; each failure is reported
// with its page identity and joined into the returned error, and failed
// pages stay dirty so a later FlushAll can retry them. The same
// outcomes land in the pool metrics: storage.flush.pages counts pages
// written clean, storage.flush.failed counts pages left dirty — one
// increment per joined error, so counters and error report agree.
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	var errs []error
	for f := bp.lru.next; f != &bp.lru; f = f.next {
		if !f.dirty {
			continue
		}
		if err := bp.writePage(f.id, f.page.buf); err != nil {
			bp.met.flushFail.Inc()
			errs = append(errs, fmt.Errorf("storage: flush page %d: %w", f.id, err))
			continue
		}
		bp.met.flushPages.Inc()
		f.dirty = false
	}
	return errors.Join(errs...)
}
