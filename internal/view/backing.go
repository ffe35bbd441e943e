package view

import (
	"errors"
	"fmt"

	"statdb/internal/colstore"
	"statdb/internal/dataset"
	"statdb/internal/obs"
	"statdb/internal/storage"
)

// Backing selects the storage structure a view's working data lives in.
// The paper's Section 2.6 argument — transposed files for statistical
// access, row files for informational access, with dynamic
// reorganization between them (Section 2.7) — becomes operational here:
// an attached store services the view's column and row reads through a
// cost-accounted device. Statistical access and updates belong to the
// transposed form, so only it takes updates write-through; a row file
// is written once, and the first update detaches it (see writeRows).
type Backing uint8

const (
	// BackingMemory keeps the view purely in memory (the default).
	BackingMemory Backing = iota
	// BackingRow stores the view in a heap file of full records.
	BackingRow
	// BackingTransposed stores the view in per-column transposed files.
	BackingTransposed
)

func (b Backing) String() string {
	switch b {
	case BackingRow:
		return "row"
	case BackingTransposed:
		return "transposed"
	default:
		return "memory"
	}
}

// store is the attached storage state.
type store struct {
	backing Backing
	dev     storage.Device
	pool    *storage.BufferPool
	frames  int
	heap    *storage.HeapFile
	rids    []storage.RID
	col     *colstore.File
}

// pageIDs returns every device page the store's structure occupies.
func (st *store) pageIDs() []storage.PageID {
	switch st.backing {
	case BackingRow:
		return st.heap.Pages()
	case BackingTransposed:
		return st.col.PageIDs()
	}
	return nil
}

// AttachStore materializes the view's current contents into a storage
// structure on a fresh cost-accounted device. Subsequent Column and
// RowAt calls are serviced (and charged) through it. Updates write
// through to a transposed store and detach a row file. Attaching
// replaces any previous store.
func (v *View) AttachStore(b Backing, cost storage.CostModel, poolFrames int) error {
	return v.AttachStoreDevice(b, storage.NewMemDevice(cost), poolFrames)
}

// AttachStoreDevice is AttachStore over a caller-supplied device — the
// injection point for fault-wrapped devices. The device
// should be empty; the view's structure is written from page zero up.
func (v *View) AttachStoreDevice(b Backing, dev storage.Device, poolFrames int) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.attachLocked(b, dev, poolFrames)
}

// attachLocked does the attach with v.mu held (shared with RecoverStore).
func (v *View) attachLocked(b Backing, dev storage.Device, poolFrames int) error {
	if b == BackingMemory {
		v.store = nil
		return nil
	}
	if poolFrames < 4 {
		poolFrames = 4
	}
	pool := storage.NewBufferPool(dev, poolFrames)
	st := &store{backing: b, dev: dev, pool: pool, frames: poolFrames}
	switch b {
	case BackingRow:
		heap := storage.NewHeapFile(pool, v.data.Schema())
		rids, err := heap.Load(v.data)
		if err != nil {
			return fmt.Errorf("view %s: attach row store: %w", v.name, err)
		}
		st.heap, st.rids = heap, rids
	case BackingTransposed:
		// Pick encodings from the data: low-cardinality (run-heavy)
		// columns load as RLE, which both shrinks the stored image and
		// makes them eligible for the run-native fold strategy.
		cf, err := colstore.Load(pool, v.data,
			colstore.Options{Encode: colstore.SuggestEncodings(v.data)})
		if err != nil {
			return fmt.Errorf("view %s: attach transposed store: %w", v.name, err)
		}
		st.col = cf
	default:
		return fmt.Errorf("view %s: unknown backing %d", v.name, b)
	}
	if err := pool.FlushAll(); err != nil {
		return err
	}
	dev.ResetStats()
	v.store = st
	return nil
}

// Reorganize closes the Section 2.7 loop: it consults the observed
// access pattern (Advice) and attaches the storage layout it favors —
// "intelligent access methods that interpret reference patterns to the
// view and dynamically reorganize the storage structures". It returns
// the backing now in effect; if the view is already stored that way,
// nothing is rebuilt. An update detaches a row file, so reorganizing to
// rows after one rebuilds the file in one sequential load.
//
//lint:allow test-only paper-named: §2.7 dynamic reorganization from observed access patterns
func (v *View) Reorganize(cost storage.CostModel, poolFrames int) (Backing, error) {
	want := BackingRow
	if v.Advice().Transpose {
		want = BackingTransposed
	}
	if v.StoreBacking() == want {
		return want, nil
	}
	if err := v.AttachStore(want, cost, poolFrames); err != nil {
		return BackingMemory, err
	}
	return want, nil
}

// StoreBacking reports the attached backing (BackingMemory when none).
func (v *View) StoreBacking() Backing {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if v.store == nil {
		return BackingMemory
	}
	return v.store.backing
}

// StoreStats returns the attached device's accumulated I/O statistics.
func (v *View) StoreStats() (storage.Stats, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if v.store == nil {
		return storage.Stats{}, fmt.Errorf("view %s: no store attached", v.name)
	}
	return v.store.dev.Stats(), nil
}

// StoreMetrics returns the attached buffer pool's metrics registry
// (storage.* families). Each attach creates a fresh pool, so the
// registry covers the current store only; core.DBMS merges it into the
// system snapshot. Nil when no store is attached.
func (v *View) StoreMetrics() *obs.Registry {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if v.store == nil {
		return nil
	}
	return v.store.pool.Metrics()
}

// RecoverReport accounts for one store verification or recovery pass.
type RecoverReport struct {
	Backing      Backing
	PagesChecked int
	CorruptPages int
	Rebuilt      bool // the store was rebuilt from the in-memory view
}

func (r RecoverReport) String() string {
	return fmt.Sprintf("backing=%s checked=%d corrupt=%d rebuilt=%v",
		r.Backing, r.PagesChecked, r.CorruptPages, r.Rebuilt)
}

// VerifyStore checks every on-device page of the attached store against
// its checksum without modifying anything. Transient read errors are
// retried on the pool's ledger (storage.retry.*); corrupt pages are
// counted, there and in the report, not fatal. Note the device image is
// what is verified: pages still dirty in the pool may be newer.
//
//lint:allow test-only safety: read-only store verification, the non-mutating half of RecoverStore
func (v *View) VerifyStore() (RecoverReport, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if v.store == nil {
		return RecoverReport{}, fmt.Errorf("view %s: no store attached", v.name)
	}
	return v.store.verify()
}

// RecoverStore verifies the attached store and, if any page is damaged,
// rebuilds the whole structure from the in-memory data set — the view
// itself is the copy of record, the store a rebuildable projection of
// it, so recovery is re-materialization onto fresh (shadow) pages.
func (v *View) RecoverStore() (RecoverReport, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.store == nil {
		return RecoverReport{}, fmt.Errorf("view %s: no store attached", v.name)
	}
	st := v.store
	rep, err := st.verify()
	if err != nil {
		return rep, err
	}
	if rep.CorruptPages == 0 {
		return rep, nil
	}
	if err := v.attachLocked(st.backing, st.dev, st.frames); err != nil {
		return rep, fmt.Errorf("view %s: store rebuild: %w", v.name, err)
	}
	rep.Rebuilt = true
	return rep, nil
}

func (st *store) verify() (RecoverReport, error) {
	rep := RecoverReport{Backing: st.backing}
	buf := make([]byte, storage.PageSize)
	for _, id := range st.pageIDs() {
		rep.PagesChecked++
		if err := st.pool.ReadDevicePage(id, buf); err != nil {
			if errors.Is(err, storage.ErrCorrupt) {
				rep.CorruptPages++
				continue
			}
			return rep, err
		}
	}
	return rep, nil
}

// readStoreColumn services a column read through the store, charging its
// device. Falls back to an error if the attribute is non-numeric.
func (st *store) readColumn(data *dataset.Dataset, attr string) ([]float64, []bool, error) {
	switch st.backing {
	case BackingTransposed:
		return st.col.NumericColumn(attr)
	case BackingRow:
		i := data.Schema().Index(attr)
		if i < 0 {
			return nil, nil, fmt.Errorf("view: no attribute %q", attr)
		}
		kind := data.Schema().At(i).Kind
		if kind == dataset.KindString {
			return nil, nil, fmt.Errorf("view: attribute %q is not numeric", attr)
		}
		xs := make([]float64, 0, data.Rows())
		valid := make([]bool, 0, data.Rows())
		err := st.heap.Scan(func(_ storage.RID, row dataset.Row) bool {
			if row[i].IsNull() {
				xs = append(xs, 0)
				valid = append(valid, false)
			} else {
				xs = append(xs, row[i].AsFloat())
				valid = append(valid, true)
			}
			return true
		})
		return xs, valid, err
	}
	return nil, nil, fmt.Errorf("view: memory backing has no store")
}

// readRow services a full-record read through the store.
func (st *store) readRow(i int) (dataset.Row, error) {
	switch st.backing {
	case BackingTransposed:
		return st.col.RowAt(i)
	case BackingRow:
		if i < 0 || i >= len(st.rids) {
			return nil, fmt.Errorf("view: row %d out of store range", i)
		}
		return st.heap.Get(st.rids[i])
	}
	return nil, fmt.Errorf("view: memory backing has no store")
}
