// Package storage implements a WiSS-like paged storage substrate
// (Section 5.2 of the paper names the Wisconsin Storage System as the
// intended basis): fixed-size slotted pages, a buffer pool, and heap
// files of variable-length records, with explicit I/O accounting.
//
// All experiments in this reproduction charge I/O through a deterministic
// CostModel rather than the wall clock, so benchmark shapes are stable
// across machines while still reflecting the paper's I/O arguments.
package storage

import (
	"fmt"
	"sync"
)

// PageSize is the size of every page in bytes.
const PageSize = 4096

// PageID identifies a page within a device.
type PageID uint32

// InvalidPage is the sentinel "no page" identifier.
const InvalidPage = PageID(0xFFFFFFFF)

// CostModel assigns virtual time to device operations. Units are
// arbitrary "ticks"; defaults approximate a late-1970s moving-head disk
// where a random page access costs ~30ms and a sequential transfer ~1ms.
type CostModel struct {
	// SeekCost is charged when an access is not sequential with respect
	// to the previous access on the device.
	SeekCost int64
	// TransferCost is charged for every page moved in either direction.
	TransferCost int64
}

// DefaultDiskCost is the disk cost model used by the experiments.
func DefaultDiskCost() CostModel { return CostModel{SeekCost: 30, TransferCost: 1} }

// Stats accumulates I/O counts and virtual time for a device.
type Stats struct {
	Reads  int64 // pages read
	Writes int64 // pages written
	Seeks  int64 // non-sequential accesses
	Ticks  int64 // virtual time consumed
}

func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d seeks=%d ticks=%d", s.Reads, s.Writes, s.Seeks, s.Ticks)
}

// TickCharger is implemented by devices that can absorb extra virtual
// time: the buffer pool charges retry backoff through it so recovery
// cost shows up in the same tick ledger as the I/O it recovers.
type TickCharger interface {
	ChargeTicks(n int64)
}

// Device is a random-access array of pages with cost accounting.
type Device interface {
	// ReadPage copies page id into buf (len PageSize).
	ReadPage(id PageID, buf []byte) error
	// WritePage copies buf (len PageSize) into page id, growing the
	// device if id is one past the end.
	WritePage(id PageID, buf []byte) error
	// Allocate extends the device by one zeroed page and returns its id.
	Allocate() (PageID, error)
	// NumPages returns the current page count.
	NumPages() int
	// Stats returns accumulated I/O statistics.
	Stats() Stats
	// ResetStats zeroes the statistics (virtual time keeps no history).
	ResetStats()
}

// MemDevice is an in-memory Device with the deterministic cost model.
// It is safe for concurrent use.
type MemDevice struct {
	mu    sync.Mutex
	pages [][]byte
	cost  CostModel
	last  PageID // last page touched, for sequentiality
	stats Stats
}

// NewMemDevice creates an empty in-memory device using cost.
func NewMemDevice(cost CostModel) *MemDevice {
	return &MemDevice{cost: cost, last: InvalidPage}
}

func (d *MemDevice) charge(id PageID) {
	if d.last == InvalidPage || id != d.last+1 {
		d.stats.Seeks++
		d.stats.Ticks += d.cost.SeekCost
	}
	d.stats.Ticks += d.cost.TransferCost
	d.last = id
}

// ReadPage implements Device.
func (d *MemDevice) ReadPage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("storage: read buffer is %d bytes, want %d", len(buf), PageSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= len(d.pages) {
		return fmt.Errorf("storage: read of unallocated page %d (have %d)", id, len(d.pages))
	}
	d.charge(id)
	d.stats.Reads++
	copy(buf, d.pages[id])
	return nil
}

// WritePage implements Device.
func (d *MemDevice) WritePage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("storage: write buffer is %d bytes, want %d", len(buf), PageSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) > len(d.pages) {
		return fmt.Errorf("storage: write of unallocated page %d (have %d)", id, len(d.pages))
	}
	if int(id) == len(d.pages) {
		d.pages = append(d.pages, make([]byte, PageSize))
	}
	d.charge(id)
	d.stats.Writes++
	copy(d.pages[id], buf)
	return nil
}

// Allocate implements Device.
func (d *MemDevice) Allocate() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := PageID(len(d.pages))
	d.pages = append(d.pages, make([]byte, PageSize))
	return id, nil
}

// NumPages implements Device.
func (d *MemDevice) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pages)
}

// Stats implements Device.
func (d *MemDevice) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats implements Device.
func (d *MemDevice) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
	d.last = InvalidPage
}

// ChargeTicks implements TickCharger.
func (d *MemDevice) ChargeTicks(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.Ticks += n
}

var _ Device = (*MemDevice)(nil)
var _ TickCharger = (*MemDevice)(nil)
