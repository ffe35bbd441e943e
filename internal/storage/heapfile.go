package storage

import (
	"errors"
	"fmt"

	"statdb/internal/dataset"
)

// RID identifies a record: page number plus slot within the page.
// Stable across in-page updates and compaction.
type RID struct {
	Page PageID
	Slot int
}

func (r RID) String() string { return fmt.Sprintf("%d.%d", r.Page, r.Slot) }

// HeapFile stores a data set's rows in slotted pages through a buffer
// pool. It is the row-oriented ("normal file") layout the paper's
// transposed-file discussion (Section 2.6) compares against.
type HeapFile struct {
	pool   *BufferPool
	schema *dataset.Schema
	pages  []PageID // in insertion order; scans are sequential
	count  int
}

// NewHeapFile creates an empty heap file for rows of schema backed by pool.
func NewHeapFile(pool *BufferPool, schema *dataset.Schema) *HeapFile {
	return &HeapFile{pool: pool, schema: schema}
}

// OpenHeapFile re-attaches a heap file whose page list and live count
// were persisted elsewhere (the Summary Database commit record does
// this). The pages must exist on the pool's device.
func OpenHeapFile(pool *BufferPool, schema *dataset.Schema, pages []PageID, count int) *HeapFile {
	return &HeapFile{pool: pool, schema: schema, pages: append([]PageID(nil), pages...), count: count}
}

// Pages returns the file's page list in insertion order (a copy).
func (h *HeapFile) Pages() []PageID { return append([]PageID(nil), h.pages...) }

// Schema returns the file's row schema.
func (h *HeapFile) Schema() *dataset.Schema { return h.schema }

// Count returns the number of live records.
func (h *HeapFile) Count() int { return h.count }

// NumPages returns the number of pages the file occupies.
func (h *HeapFile) NumPages() int { return len(h.pages) }

// Insert appends row and returns its RID. Insertion tries the last page
// first (append-mostly workload), allocating a new page when full.
func (h *HeapFile) Insert(row dataset.Row) (RID, error) {
	rec := EncodeRow(nil, row)
	if len(h.pages) > 0 {
		last := h.pages[len(h.pages)-1]
		p, err := h.pool.Fetch(last)
		if err != nil {
			return RID{}, err
		}
		slot, err := p.Insert(rec)
		if err == nil {
			h.count++
			return RID{last, slot}, h.pool.Unpin(last, true)
		}
		if unpinErr := h.pool.Unpin(last, false); unpinErr != nil {
			return RID{}, unpinErr
		}
		if err != ErrPageFull {
			return RID{}, err
		}
	}
	id, p, err := h.pool.NewPage()
	if err != nil {
		return RID{}, err
	}
	slot, err := p.Insert(rec)
	if err != nil {
		_ = h.pool.Unpin(id, false) //lint:allow error-flow unpin on the error path; the original error wins
		return RID{}, err
	}
	h.pages = append(h.pages, id)
	h.count++
	return RID{id, slot}, h.pool.Unpin(id, true)
}

// Get returns the record at rid. A record whose bytes fail to decode is
// reported as a CorruptError locating the page and slot.
func (h *HeapFile) Get(rid RID) (dataset.Row, error) {
	p, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return nil, err
	}
	rec, err := p.Get(rid.Slot)
	if err != nil {
		_ = h.pool.Unpin(rid.Page, false) //lint:allow error-flow unpin on the error path; the original error wins
		return nil, err
	}
	row, err := DecodeRow(rec, h.schema.Len())
	if err != nil {
		err = &CorruptError{Page: rid.Page, Slot: rid.Slot, Off: -1,
			Detail: "row codec", Cause: err}
	}
	if uerr := h.pool.Unpin(rid.Page, false); uerr != nil && err == nil {
		err = uerr
	}
	return row, err
}

// Update replaces the record at rid. If the new encoding no longer fits
// in the page even after compaction, Update fails; the caller relocates.
func (h *HeapFile) Update(rid RID, row dataset.Row) error {
	rec := EncodeRow(nil, row)
	p, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	err = p.Update(rid.Slot, rec)
	if err == ErrPageFull {
		p.Compact()
		err = p.Update(rid.Slot, rec)
	}
	dirty := err == nil
	if uerr := h.pool.Unpin(rid.Page, dirty); uerr != nil && err == nil {
		err = uerr
	}
	return err
}

// Delete removes the record at rid.
func (h *HeapFile) Delete(rid RID) error {
	p, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	err = p.Delete(rid.Slot)
	dirty := err == nil
	if uerr := h.pool.Unpin(rid.Page, dirty); uerr != nil && err == nil {
		err = uerr
	}
	if err == nil {
		h.count--
	}
	return err
}

// Scan calls fn for every live record in file order. fn returning false
// stops the scan early. This is the full-file sequential access pattern
// that dominates statistical operations (Section 2.2).
func (h *HeapFile) Scan(fn func(rid RID, row dataset.Row) bool) error {
	for _, id := range h.pages {
		p, err := h.pool.Fetch(id)
		if err != nil {
			return err
		}
		stop := false
		for s := 0; s < p.NumSlots(); s++ {
			rec, err := p.Get(s)
			if err == ErrRecordDeleted {
				continue
			}
			if err != nil {
				_ = h.pool.Unpin(id, false) //lint:allow error-flow unpin on the error path; the original error wins
				return err
			}
			row, err := DecodeRow(rec, h.schema.Len())
			if err != nil {
				_ = h.pool.Unpin(id, false) //lint:allow error-flow unpin on the error path; the original error wins
				return &CorruptError{Page: id, Slot: s, Off: -1,
					Detail: "row codec", Cause: err}
			}
			if !fn(RID{id, s}, row) {
				stop = true
				break
			}
		}
		if err := h.pool.Unpin(id, false); err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

// Corruption describes one unit (a page or a record) that a tolerant
// scan skipped because its bytes did not verify or decode.
type Corruption struct {
	Page PageID
	Slot int // -1 when the whole page was skipped
	Err  error
}

// ScanTolerant is Scan for recovery paths: instead of aborting at the
// first corrupt page or record, it reports each corruption through bad
// (when non-nil) and continues with the rest of the file. Only
// ErrCorrupt-class failures are tolerated; device errors that are not
// corruption (unknown page, exhausted transient retries) still abort.
// The Summary Database uses this to degrade — drop what cannot be read,
// recompute it from the concrete view (Section 3.2's cache semantics).
func (h *HeapFile) ScanTolerant(fn func(rid RID, row dataset.Row) bool, bad func(Corruption)) error {
	report := func(c Corruption) {
		if bad != nil {
			bad(c)
		}
	}
	for _, id := range h.pages {
		p, err := h.pool.Fetch(id)
		if err != nil {
			if errors.Is(err, ErrCorrupt) {
				report(Corruption{Page: id, Slot: -1, Err: err})
				continue
			}
			return err
		}
		stop := false
		for s := 0; s < p.NumSlots(); s++ {
			rec, err := p.Get(s)
			if err == ErrRecordDeleted {
				continue
			}
			if err != nil {
				report(Corruption{Page: id, Slot: s, Err: err})
				continue
			}
			row, err := DecodeRow(rec, h.schema.Len())
			if err != nil {
				report(Corruption{Page: id, Slot: s,
					Err: &CorruptError{Page: id, Slot: s, Off: -1, Detail: "row codec", Cause: err}})
				continue
			}
			if !fn(RID{id, s}, row) {
				stop = true
				break
			}
		}
		if err := h.pool.Unpin(id, false); err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

// Load bulk-inserts every row of ds and returns the RIDs in row order.
func (h *HeapFile) Load(ds *dataset.Dataset) ([]RID, error) {
	rids := make([]RID, 0, ds.Rows())
	for i := 0; i < ds.Rows(); i++ {
		rid, err := h.Insert(ds.RowAt(i))
		if err != nil {
			return nil, fmt.Errorf("storage: load row %d: %w", i, err)
		}
		rids = append(rids, rid)
	}
	return rids, nil
}

// Materialize reads the whole file back into an in-memory data set in
// file order. A decoded row the schema rejects means the stored bytes
// were wrong despite decoding — reported as corruption, not a panic.
func (h *HeapFile) Materialize() (*dataset.Dataset, error) {
	out := dataset.New(h.schema)
	var appendErr error
	err := h.Scan(func(rid RID, row dataset.Row) bool {
		if err := out.Append(row); err != nil {
			appendErr = &CorruptError{Page: rid.Page, Slot: rid.Slot, Off: -1,
				Detail: "decoded row rejected by schema", Cause: err}
			return false
		}
		return true
	})
	if err == nil {
		err = appendErr
	}
	return out, err
}
