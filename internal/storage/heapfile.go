package storage

import (
	"errors"
	"fmt"

	"statdb/internal/dataset"
)

// RID identifies a record: page number plus slot within the page.
// Records are never moved, so a RID is stable for the file's life.
type RID struct {
	Page PageID
	Slot int
}

func (r RID) String() string { return fmt.Sprintf("%d.%d", r.Page, r.Slot) }

// HeapFile stores a data set's rows in slotted pages through a buffer
// pool. It is the row-oriented ("normal file") layout the paper's
// transposed-file discussion (Section 2.6) compares against. The file is
// append-only: a record is written once and never changed in place, so
// a changed data set is a new file, written in one sequential Load.
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

// OpenHeapFile re-attaches a heap file whose page list and record count
// were persisted elsewhere (the Summary Database commit record does
// this). The pages must exist on the pool's device.
func OpenHeapFile(pool *BufferPool, schema *dataset.Schema, pages []PageID, count int) *HeapFile {
	return &HeapFile{pool: pool, schema: schema, pages: append([]PageID(nil), pages...), count: count}
}

// Pages returns the file's page list in insertion order (a copy).
func (h *HeapFile) Pages() []PageID { return append([]PageID(nil), h.pages...) }

// Schema returns the file's row schema.
func (h *HeapFile) Schema() *dataset.Schema { return h.schema }

// NumPages returns the number of pages the file occupies.
func (h *HeapFile) NumPages() int { return len(h.pages) }

// Insert appends row and returns its RID. Insertion tries the last page
// first, allocating a new page when full.
func (h *HeapFile) Insert(row dataset.Row) (RID, error) {
	return h.insert(EncodeRow(nil, row))
}

// insert stores one encoded record; the page copies it.
func (h *HeapFile) insert(rec []byte) (RID, error) {
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

// Scan calls fn for every record in file order. fn returning false
// stops the scan early. This is the full-file sequential access pattern
// that dominates statistical operations (Section 2.2). It aborts at the
// first page or record that fails to read or decode. Every record is
// decoded into the same row, so fn must not keep the row (its values
// it may keep) past its return.
func (h *HeapFile) Scan(fn func(rid RID, row dataset.Row) bool) error {
	return h.ScanTolerant(fn, nil)
}

// Corruption describes one unit (a page or a record) that a tolerant
// scan skipped because its bytes did not verify or decode.
type Corruption struct {
	Page PageID
	Slot int // -1 when the whole page was skipped
	Err  error
}

// ScanTolerant is Scan for recovery paths: with a non-nil bad, instead of
// aborting at the first corrupt page or record, it reports each
// corruption through bad and continues with the rest of the file. Only
// ErrCorrupt-class page failures are tolerated; device errors that are
// not corruption (unknown page, exhausted transient retries) still abort.
// With a nil bad it is Scan, and its fn, like Scan's, must not keep the
// row. The Summary Database uses it to degrade — drop what cannot be
// read, recompute it from the concrete view (Section 3.2's cache
// semantics).
func (h *HeapFile) ScanTolerant(fn func(rid RID, row dataset.Row) bool, bad func(Corruption)) error {
	row := make(dataset.Row, 0, h.schema.Len())
	for _, id := range h.pages {
		p, err := h.pool.Fetch(id)
		if err != nil {
			if bad == nil || !errors.Is(err, ErrCorrupt) {
				return err
			}
			bad(Corruption{Page: id, Slot: -1, Err: err})
			continue
		}
		stop := false
		for s := 0; s < p.NumSlots() && !stop; s++ {
			rec, err := p.Get(s)
			if err == nil {
				if row, err = decodeRowInto(row, rec, h.schema.Len()); err != nil {
					err = &CorruptError{Page: id, Slot: s, Off: -1, Detail: "row codec", Cause: err}
				}
			}
			switch {
			case err == nil:
				stop = !fn(RID{id, s}, row)
			case bad != nil:
				bad(Corruption{Page: id, Slot: s, Err: err})
			default:
				_ = h.pool.Unpin(id, false) //lint:allow error-flow unpin on the error path; the original error wins
				return err
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

// Load bulk-inserts every row of ds, encoded from its typed columns, and
// returns the RIDs in row order.
func (h *HeapFile) Load(ds *dataset.Dataset) ([]RID, error) {
	rids := make([]RID, 0, ds.Rows())
	enc := RecordEncoder(ds)
	var rec []byte
	for i := 0; i < ds.Rows(); i++ {
		rec = enc(rec[:0], i)
		rid, err := h.insert(rec)
		if err != nil {
			return nil, fmt.Errorf("storage: load row %d: %w", i, err)
		}
		rids = append(rids, rid)
	}
	return rids, nil
}
