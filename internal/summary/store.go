package summary

import (
	"encoding/binary"
	"errors"
	"fmt"

	"statdb/internal/storage"
)

// Crash-consistent persistence for the Summary Database.
//
// A checkpoint never overwrites live data: each generation's entries are
// written to fresh heap pages (a shadow copy), those pages are flushed,
// and only then is a commit record written that names the new
// generation's pages. The commit record alternates between two fixed
// pages (a ping-pong pair) so the previous generation's record is never
// touched while the new one is being written. A crash or torn write at
// any point therefore leaves at least one valid, checksummed commit
// record on the device, and Restore falls back to it.
//
// Old generations' pages are not reclaimed — acceptable for a cache
// whose loss costs only recomputation (Section 3.2), and it keeps the
// commit protocol one page long.

// commit record layout, in the payload of commit page 0 or 1:
//
//	offset 0:  uint32 magic "SDBC"
//	offset 4:  uint64 generation (0 is never committed)
//	offset 12: uint32 entry count
//	offset 16: uint32 heap page count N
//	offset 20: N uint32 heap page ids
const (
	commitMagic  = 0x43424453 // "SDBC" little endian
	commitSlots  = 2
	commitFixed  = 20
	maxHeapPages = (storage.PagePayloadSize - commitFixed) / 4
)

// Store persists a Summary Database on a page device with checkpoint
// and restore semantics. The device's first two pages are reserved as
// commit slots; heap generations follow.
type Store struct {
	pool *storage.BufferPool
	gen  uint64
}

type commitRec struct {
	gen   uint64
	count int
	pages []storage.PageID
}

// NewStore initializes a store on an empty device, reserving the two
// commit pages.
func NewStore(pool *storage.BufferPool) (*Store, error) {
	if pool.Device().NumPages() != 0 {
		return nil, fmt.Errorf("summary: NewStore needs an empty device; use OpenStore")
	}
	for i := 0; i < commitSlots; i++ {
		id, _, err := pool.NewPage()
		if err != nil {
			return nil, err
		}
		if id != storage.PageID(i) {
			return nil, fmt.Errorf("summary: commit slot landed on page %d, want %d", id, i)
		}
		if err := pool.Unpin(id, true); err != nil {
			return nil, err
		}
	}
	if err := pool.FlushAll(); err != nil {
		return nil, err
	}
	return &Store{pool: pool}, nil
}

// OpenStore attaches to a device that previously held a store, adopting
// the newest valid generation. A device where both commit slots are
// damaged or empty opens at generation zero: everything recomputes, the
// cache's universal fallback.
func OpenStore(pool *storage.BufferPool) (*Store, error) {
	if pool.Device().NumPages() < commitSlots {
		return nil, fmt.Errorf("summary: device has %d pages; not a summary store", pool.Device().NumPages())
	}
	s := &Store{pool: pool}
	if rec, ok := s.bestCommit(); ok {
		s.gen = rec.gen
	}
	return s, nil
}

// Generation returns the last committed generation (0 = none).
func (s *Store) Generation() uint64 { return s.gen }

// readCommit decodes commit slot i, reporting ok=false for a damaged or
// never-written slot (checksum failure included — a torn commit write is
// expected, not exceptional).
func (s *Store) readCommit(slot int) (commitRec, bool) {
	p, err := s.pool.Fetch(storage.PageID(slot))
	if err != nil {
		return commitRec{}, false // corrupt or unreadable: not a candidate
	}
	defer s.pool.Unpin(storage.PageID(slot), false)
	buf := p.Payload()
	if binary.LittleEndian.Uint32(buf[0:4]) != commitMagic {
		return commitRec{}, false
	}
	rec := commitRec{
		gen:   binary.LittleEndian.Uint64(buf[4:12]),
		count: int(binary.LittleEndian.Uint32(buf[12:16])),
	}
	n := int(binary.LittleEndian.Uint32(buf[16:20]))
	if rec.gen == 0 || n < 0 || n > maxHeapPages {
		return commitRec{}, false
	}
	limit := s.pool.Device().NumPages()
	for i := 0; i < n; i++ {
		id := storage.PageID(binary.LittleEndian.Uint32(buf[commitFixed+4*i : commitFixed+4*i+4]))
		if int(id) >= limit || id < commitSlots {
			return commitRec{}, false // names a page that cannot exist
		}
		rec.pages = append(rec.pages, id)
	}
	return rec, true
}

// bestCommit returns the valid commit record with the highest
// generation.
func (s *Store) bestCommit() (commitRec, bool) {
	var best commitRec
	found := false
	for i := 0; i < commitSlots; i++ {
		if rec, ok := s.readCommit(i); ok && rec.gen > best.gen {
			best, found = rec, true
		}
	}
	return best, found
}

// Checkpoint writes db's entries as a new generation: shadow heap pages
// first, flushed; then the commit record, flushed. Only after the commit
// page reaches the device is the generation adopted. On any error the
// previous generation remains the committed one.
func (s *Store) Checkpoint(db *DB) error {
	heap := NewSummaryHeapFile(s.pool)
	if err := db.Save(heap); err != nil {
		return err
	}
	if err := s.pool.FlushAll(); err != nil {
		return fmt.Errorf("summary: checkpoint data flush: %w", err)
	}
	pages := heap.Pages()
	if len(pages) > maxHeapPages {
		return fmt.Errorf("summary: checkpoint of %d pages exceeds the %d a commit record can name",
			len(pages), maxHeapPages)
	}
	gen := s.gen + 1
	slot := storage.PageID(gen % commitSlots)
	p, err := s.pool.Fetch(slot)
	if err != nil {
		// The inactive commit slot may itself have been corrupted by an
		// earlier fault; it is about to be rewritten whole, so rebuild
		// the frame from scratch rather than refusing.
		if !errors.Is(err, storage.ErrCorrupt) {
			return err
		}
		p, err = s.rebuildCommitFrame(slot)
		if err != nil {
			return err
		}
	}
	buf := p.Payload()
	for i := range buf {
		buf[i] = 0
	}
	binary.LittleEndian.PutUint32(buf[0:4], commitMagic)
	binary.LittleEndian.PutUint64(buf[4:12], gen)
	binary.LittleEndian.PutUint32(buf[12:16], uint32(db.Len()))
	binary.LittleEndian.PutUint32(buf[16:20], uint32(len(pages)))
	for i, id := range pages {
		binary.LittleEndian.PutUint32(buf[commitFixed+4*i:commitFixed+4*i+4], uint32(id))
	}
	if err := s.pool.Unpin(slot, true); err != nil {
		return err
	}
	if err := s.pool.FlushAll(); err != nil {
		return fmt.Errorf("summary: commit record flush: %w", err)
	}
	s.gen = gen
	return nil
}

// rebuildCommitFrame re-creates a commit page image in the pool when the
// on-device copy no longer verifies. Writing a fresh enveloped image
// through the device and refetching repopulates the frame.
func (s *Store) rebuildCommitFrame(slot storage.PageID) (*storage.Page, error) {
	buf := make([]byte, storage.PageSize)
	storage.NewPage(buf).Init()
	storage.SealPage(buf)
	if err := s.pool.Device().WritePage(slot, buf); err != nil {
		return nil, err
	}
	return s.pool.Fetch(slot)
}

// Restore loads the newest valid generation into db, degrading per
// record exactly as Load does. With no valid commit record the store is
// empty: the report is zero and every future lookup recomputes — the
// full-rebuild fallback.
func (s *Store) Restore(db *DB) (LoadReport, error) {
	rec, ok := s.bestCommit()
	if !ok {
		return LoadReport{}, nil
	}
	s.gen = rec.gen
	heap := storage.OpenHeapFile(s.pool, resultSchema(), rec.pages, rec.count)
	return Load(db, heap)
}
