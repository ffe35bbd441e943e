package storage

import (
	"errors"
	"strings"
	"testing"

	"statdb/internal/obs"
)

// counter reads one storage.* counter from the pool's registry.
func counter(t *testing.T, bp *BufferPool, name string) int64 {
	t.Helper()
	return bp.Metrics().Counter(name).Value()
}

// dirtyPage allocates a fresh page through the pool and leaves it dirty.
func dirtyPage(t *testing.T, bp *BufferPool) PageID {
	t.Helper()
	id, _, err := bp.NewPage()
	if err != nil {
		t.Fatalf("NewPage: %v", err)
	}
	if err := bp.Unpin(id, true); err != nil {
		t.Fatalf("Unpin: %v", err)
	}
	return id
}

// TestFlushAllCountersMatchErrorReport is the observability contract for
// FlushAll: a page left dirty by a failed write-back is counted in
// storage.flush.failed exactly as often as it appears in the joined
// error, and pages written clean land in storage.flush.pages — so a
// caller can learn the flush outcome from metrics alone.
func TestFlushAllCountersMatchErrorReport(t *testing.T) {
	dev := NewFaultDevice(NewMemDevice(DefaultDiskCost()), FaultConfig{Seed: 7, WriteTransientRate: 1})
	pool := NewBufferPool(dev, 8)
	// Exhaust retries fast; every write attempt fails while injection is on.
	pool.retry = RetryPolicy{MaxAttempts: 2, BackoffTicks: 1}

	const pages = 4
	for i := 0; i < pages; i++ {
		dirtyPage(t, pool)
	}

	err := pool.FlushAll()
	if err == nil {
		t.Fatal("FlushAll succeeded with write faults at rate 1")
	}
	reported := strings.Count(err.Error(), "flush page ")
	if reported != pages {
		t.Fatalf("error reports %d failed pages, want %d: %v", reported, pages, err)
	}
	if got := counter(t, pool, obs.MStorageFlushFailed); got != int64(reported) {
		t.Errorf("storage.flush.failed = %d, want %d (one per joined error)", got, reported)
	}
	if got := counter(t, pool, obs.MStorageFlushPages); got != 0 {
		t.Errorf("storage.flush.pages = %d, want 0 after total failure", got)
	}
	// Every failed operation burned its full retry budget.
	if got := counter(t, pool, obs.MStorageRetryExhausted); got != int64(pages) {
		t.Errorf("storage.retry.exhausted = %d, want %d", got, pages)
	}

	// Failed pages stayed dirty: with injection off, a second FlushAll
	// retries exactly those pages and the clean-write counter catches up.
	dev.SetDisabled(true)
	if err := pool.FlushAll(); err != nil {
		t.Fatalf("FlushAll after disabling faults: %v", err)
	}
	if got := counter(t, pool, obs.MStorageFlushPages); got != int64(pages) {
		t.Errorf("storage.flush.pages = %d after retry, want %d", got, pages)
	}
	if got := counter(t, pool, obs.MStorageFlushFailed); got != int64(reported) {
		t.Errorf("storage.flush.failed moved on the clean pass: %d", got)
	}
	// And a third flush with nothing dirty writes nothing.
	if err := pool.FlushAll(); err != nil {
		t.Fatalf("idempotent FlushAll: %v", err)
	}
	if got := counter(t, pool, obs.MStorageFlushPages); got != int64(pages) {
		t.Errorf("storage.flush.pages = %d after no-op flush, want %d", got, pages)
	}
}

// TestEvictionCountersMatchOutcomes drives a capacity-1 pool so every new
// page evicts the previous one, and checks the eviction counter family:
// evictions counts successes, evict_dirty counts dirty victims (write-back
// attempted), evict_write_failed counts victims whose write-back failed —
// matching the page identity in the returned error.
func TestEvictionCountersMatchOutcomes(t *testing.T) {
	inner := NewMemDevice(DefaultDiskCost())
	dev := NewFaultDevice(inner, FaultConfig{Seed: 3, WriteTransientRate: 1})
	dev.SetDisabled(true)
	pool := NewBufferPool(dev, 1)
	pool.retry = RetryPolicy{MaxAttempts: 2, BackoffTicks: 1}

	// Two dirty pages: allocating the second evicts the first (dirty →
	// write-back, succeeds while faults are off).
	first := dirtyPage(t, pool)
	dirtyPage(t, pool)
	if got := counter(t, pool, obs.MStoragePoolEvictions); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if got := counter(t, pool, obs.MStoragePoolEvictDirty); got != 1 {
		t.Errorf("evict_dirty = %d, want 1", got)
	}
	if got := counter(t, pool, obs.MStoragePoolEvictFailed); got != 0 {
		t.Errorf("evict_write_failed = %d, want 0", got)
	}

	// Re-fetching the first page evicts the (dirty) second — but now the
	// write-back fails, so the eviction fails, the failure counter moves,
	// and the success counter does not.
	dev.SetDisabled(false)
	_, err := pool.Fetch(first)
	if err == nil {
		t.Fatal("Fetch succeeded though eviction write-back must fail")
	}
	if !strings.Contains(err.Error(), "evict page ") {
		t.Fatalf("error does not identify the evicted page: %v", err)
	}
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("eviction failure should wrap the device error: %v", err)
	}
	if got := counter(t, pool, obs.MStoragePoolEvictFailed); got != 1 {
		t.Errorf("evict_write_failed = %d, want 1", got)
	}
	if got := counter(t, pool, obs.MStoragePoolEvictions); got != 1 {
		t.Errorf("evictions moved on a failed eviction: %d", got)
	}
	if got := counter(t, pool, obs.MStoragePoolEvictDirty); got != 2 {
		t.Errorf("evict_dirty = %d, want 2 (every dirty victim attempt)", got)
	}
}
