package storage

import (
	"fmt"
	"sync"
)

// FaultDevice wraps a Device and injects deterministic, seed-driven
// faults — the storage layer's adversary. Because every fault is drawn
// from a private splitmix64 stream, a given (seed, operation sequence)
// always injects the same faults, so recovery experiments are as
// reproducible as the cost model itself.
//
// Fault classes:
//
//   - transient read/write errors: the operation fails with a
//     TransientError (wrapping ErrTransient) and performs no I/O; a
//     retry may succeed. Models controller hiccups and timeouts.
//   - torn writes: only the first half of the page reaches the device;
//     the second half keeps its previous content (zeros for a fresh
//     page). The write reports success — exactly the silent half-write
//     a power cut produces. The page checksum catches it at next read.
//   - bit flips: the page is persisted with one bit inverted at a
//     seed-chosen position. Reports success; caught by checksum.
//   - stuck pages: the page silently stops accepting writes — every
//     write to it from then on is dropped whole, reporting success.
//     The stale image still carries a valid checksum, so this fault is
//     invisible to the CRC and must be caught by higher-level logic
//     (generation commits, recompute-and-compare).
//
// FaultDevice is safe for concurrent use; under concurrency the fault
// stream is still deterministic per operation order, which the race
// detector sees as serialized through the mutex.
type FaultDevice struct {
	mu       sync.Mutex
	inner    Device
	cfg      FaultConfig
	state    uint64
	stuck    map[PageID]bool
	counts   FaultCounts
	disabled bool
}

// FaultConfig sets per-operation fault probabilities in [0,1] and the
// deterministic seed. The zero config injects nothing.
type FaultConfig struct {
	Seed uint64
	// Read-side faults.
	ReadTransientRate float64
	// Write-side faults.
	WriteTransientRate float64
	TornWriteRate      float64
	BitFlipRate        float64
	StuckPageRate      float64
	// MaxFaults bounds the total injected faults; 0 means unlimited.
	MaxFaults int64
}

// FaultCounts reports what was injected, per class.
type FaultCounts struct {
	ReadTransient  int64
	WriteTransient int64
	TornWrites     int64
	BitFlips       int64
	StuckPages     int64 // pages that became stuck
	StuckDrops     int64 // writes silently dropped on stuck pages
}

// Injected returns the total faults injected across all classes
// (counting each dropped write on a stuck page).
func (c FaultCounts) Injected() int64 {
	return c.ReadTransient + c.WriteTransient + c.TornWrites +
		c.BitFlips + c.StuckPages + c.StuckDrops
}

func (c FaultCounts) String() string {
	return fmt.Sprintf("rtrans=%d wtrans=%d torn=%d flips=%d stuck=%d drops=%d",
		c.ReadTransient, c.WriteTransient, c.TornWrites, c.BitFlips,
		c.StuckPages, c.StuckDrops)
}

// NewFaultDevice wraps inner with fault injection configured by cfg.
func NewFaultDevice(inner Device, cfg FaultConfig) *FaultDevice {
	return &FaultDevice{
		inner: inner,
		cfg:   cfg,
		state: cfg.Seed,
		stuck: make(map[PageID]bool),
	}
}

// Faults returns the injected-fault counters.
func (d *FaultDevice) Faults() FaultCounts {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.counts
}

// SetDisabled pauses (true) or resumes (false) injection; the underlying
// device keeps working either way. Useful to build clean state before
// turning the adversary loose.
func (d *FaultDevice) SetDisabled(v bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.disabled = v
}

// next is splitmix64: deterministic, full-period, cheap.
func (d *FaultDevice) next() uint64 {
	d.state += 0x9E3779B97F4A7C15
	z := d.state
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// draw returns a uniform float64 in [0,1).
func (d *FaultDevice) draw() float64 {
	return float64(d.next()>>11) / (1 << 53)
}

// budget reports whether another fault may be injected.
func (d *FaultDevice) budget() bool {
	if d.disabled {
		return false
	}
	return d.cfg.MaxFaults == 0 || d.counts.Injected() < d.cfg.MaxFaults
}

// ReadPage implements Device, possibly failing transiently.
func (d *FaultDevice) ReadPage(id PageID, buf []byte) error {
	d.mu.Lock()
	if d.budget() && d.draw() < d.cfg.ReadTransientRate {
		d.counts.ReadTransient++
		d.mu.Unlock()
		return &TransientError{Op: "read", Page: id}
	}
	d.mu.Unlock()
	return d.inner.ReadPage(id, buf)
}

// WritePage implements Device, possibly failing transiently or silently
// persisting a damaged image (torn half-write, bit flip, stuck page).
func (d *FaultDevice) WritePage(id PageID, buf []byte) error {
	d.mu.Lock()
	switch {
	case d.stuck[id]:
		d.counts.StuckDrops++
		d.mu.Unlock()
		return nil // silently dropped; the old image survives
	case d.budget() && d.draw() < d.cfg.WriteTransientRate:
		d.counts.WriteTransient++
		d.mu.Unlock()
		return &TransientError{Op: "write", Page: id}
	case d.budget() && d.draw() < d.cfg.StuckPageRate:
		d.counts.StuckPages++
		d.stuck[id] = true
		d.counts.StuckDrops++
		d.mu.Unlock()
		return nil
	case d.budget() && d.draw() < d.cfg.TornWriteRate:
		d.counts.TornWrites++
		torn := make([]byte, PageSize)
		// Second half keeps the previous on-device image (zeros when the
		// page is being written for the first time). The read to fetch it
		// is part of the simulation, not charged as a user read: it goes
		// to the inner device but its cost is legitimate fault-modeling
		// overhead either way.
		_ = d.inner.ReadPage(id, torn)
		copy(torn[:PageSize/2], buf[:PageSize/2])
		d.mu.Unlock()
		return d.inner.WritePage(id, torn)
	case d.budget() && d.draw() < d.cfg.BitFlipRate:
		d.counts.BitFlips++
		bit := int(d.next() % (PageSize * 8))
		flipped := make([]byte, PageSize)
		copy(flipped, buf)
		flipped[bit/8] ^= 1 << (bit % 8)
		d.mu.Unlock()
		return d.inner.WritePage(id, flipped)
	}
	d.mu.Unlock()
	return d.inner.WritePage(id, buf)
}

// Allocate implements Device.
func (d *FaultDevice) Allocate() (PageID, error) { return d.inner.Allocate() }

// NumPages implements Device.
func (d *FaultDevice) NumPages() int { return d.inner.NumPages() }

// Stats implements Device.
func (d *FaultDevice) Stats() Stats { return d.inner.Stats() }

// ResetStats implements Device. Fault counters are kept; use a fresh
// FaultDevice to zero them.
func (d *FaultDevice) ResetStats() { d.inner.ResetStats() }

// ChargeTicks implements TickCharger when the inner device does;
// otherwise the charge is dropped.
func (d *FaultDevice) ChargeTicks(n int64) {
	if tc, ok := d.inner.(TickCharger); ok {
		tc.ChargeTicks(n)
	}
}

var _ Device = (*FaultDevice)(nil)
var _ TickCharger = (*FaultDevice)(nil)
