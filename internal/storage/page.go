package storage

import (
	"encoding/binary"
	"fmt"
)

// Slotted page layout (little endian):
//
//	offset 0:  8-byte page envelope (magic, version, CRC — checksum.go)
//	offset 8:  uint16 slot count
//	offset 10: uint16 free-space pointer (offset of first free byte)
//	offset 12: record area, growing upward
//	end:       slot directory, growing downward; each slot is
//	           uint16 offset, uint16 length. offset == 0xFFFF marks a
//	           deleted slot (offset 0 is never a record start).
//
// Records are at most PageSize-16 bytes, so any record that fits in a
// page fits with its slot.
const (
	pageHeaderSize = PageEnvelopeSize + 4
	slotSize       = 4
	deletedOffset  = 0xFFFF
)

// MaxRecordSize is the largest record a page can hold.
const MaxRecordSize = PageSize - pageHeaderSize - slotSize

// Page wraps a PageSize byte buffer with slotted-record operations.
// The zero page (all zero bytes) is a valid empty page after InitPage.
type Page struct {
	buf []byte
}

// NewPage wraps buf, which must be PageSize bytes. The caller retains
// ownership; Page methods mutate it in place.
func NewPage(buf []byte) *Page {
	if len(buf) != PageSize {
		//lint:allow no-panic buffer-size invariant is a caller bug; data faults return ErrCorrupt
		panic(fmt.Sprintf("storage: NewPage with %d bytes", len(buf)))
	}
	return &Page{buf: buf}
}

// Init formats the page as empty, stamping the envelope (the checksum
// itself is written when the page is flushed).
func (p *Page) Init() {
	for i := range p.buf {
		p.buf[i] = 0
	}
	initEnvelope(p.buf)
	p.setSlotCount(0)
	p.setFreePtr(pageHeaderSize)
}

// Payload returns the page bytes behind the envelope — the region page
// formats (column segments, index nodes) may use freely; the envelope
// stays under the buffer pool's control.
func (p *Page) Payload() []byte { return p.buf[PageEnvelopeSize:] }

const (
	slotCountOff = PageEnvelopeSize
	freePtrOff   = PageEnvelopeSize + 2
)

func (p *Page) slotCount() int {
	return int(binary.LittleEndian.Uint16(p.buf[slotCountOff : slotCountOff+2]))
}
func (p *Page) setSlotCount(n int) {
	binary.LittleEndian.PutUint16(p.buf[slotCountOff:slotCountOff+2], uint16(n))
}
func (p *Page) freePtr() int {
	return int(binary.LittleEndian.Uint16(p.buf[freePtrOff : freePtrOff+2]))
}
func (p *Page) setFreePtr(off int) {
	binary.LittleEndian.PutUint16(p.buf[freePtrOff:freePtrOff+2], uint16(off))
}

func (p *Page) slotPos(slot int) int { return PageSize - (slot+1)*slotSize }

func (p *Page) slot(slot int) (off, length int) {
	pos := p.slotPos(slot)
	return int(binary.LittleEndian.Uint16(p.buf[pos : pos+2])),
		int(binary.LittleEndian.Uint16(p.buf[pos+2 : pos+4]))
}

func (p *Page) setSlot(slot, off, length int) {
	pos := p.slotPos(slot)
	binary.LittleEndian.PutUint16(p.buf[pos:pos+2], uint16(off))
	binary.LittleEndian.PutUint16(p.buf[pos+2:pos+4], uint16(length))
}

// NumSlots returns the number of slots ever allocated in the page,
// including deleted ones.
func (p *Page) NumSlots() int { return p.slotCount() }

// FreeSpace returns the bytes available for a new record (including its
// slot entry). Deleted-slot reuse is not counted; Compact reclaims it.
func (p *Page) FreeSpace() int {
	free := PageSize - p.slotCount()*slotSize - p.freePtr() - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// Insert stores rec in the page and returns its slot number.
// It fails with ErrPageFull when the record does not fit.
func (p *Page) Insert(rec []byte) (int, error) {
	if len(rec) > MaxRecordSize {
		return 0, fmt.Errorf("storage: record of %d bytes exceeds max %d", len(rec), MaxRecordSize)
	}
	if len(rec) > p.FreeSpace() {
		return 0, ErrPageFull
	}
	off := p.freePtr()
	copy(p.buf[off:], rec)
	slot := p.slotCount()
	p.setSlot(slot, off, len(rec))
	p.setSlotCount(slot + 1)
	p.setFreePtr(off + len(rec))
	return slot, nil
}

// ErrPageFull reports that a record does not fit in the page.
var ErrPageFull = fmt.Errorf("storage: page full")

// Get returns the record in slot. The returned slice aliases the page
// buffer; callers copy if they retain it past the pin.
func (p *Page) Get(slot int) ([]byte, error) {
	if slot < 0 || slot >= p.slotCount() {
		return nil, fmt.Errorf("storage: slot %d out of range [0,%d)", slot, p.slotCount())
	}
	off, length := p.slot(slot)
	if off == deletedOffset {
		return nil, ErrRecordDeleted
	}
	return p.buf[off : off+length], nil
}

// ErrRecordDeleted reports access to a deleted slot.
var ErrRecordDeleted = fmt.Errorf("storage: record deleted")

// Update replaces the record in slot. If the new record fits in the old
// space it is updated in place; otherwise it is re-inserted at the free
// pointer (the slot number is stable either way, which keeps RIDs valid —
// the property the heap file and indexes rely on).
func (p *Page) Update(slot int, rec []byte) error {
	if slot < 0 || slot >= p.slotCount() {
		return fmt.Errorf("storage: slot %d out of range [0,%d)", slot, p.slotCount())
	}
	off, length := p.slot(slot)
	if off == deletedOffset {
		return ErrRecordDeleted
	}
	if len(rec) <= length {
		copy(p.buf[off:], rec)
		p.setSlot(slot, off, len(rec))
		return nil
	}
	// Needs more room: append at the free pointer. The old copy is not
	// reclaimed until Compact, so the entire new record must fit between
	// the free pointer and the slot directory.
	avail := PageSize - p.slotCount()*slotSize - p.freePtr()
	if len(rec) > avail {
		return ErrPageFull
	}
	newOff := p.freePtr()
	copy(p.buf[newOff:], rec)
	p.setSlot(slot, newOff, len(rec))
	p.setFreePtr(newOff + len(rec))
	return nil
}

// Compact rewrites the record area dropping dead space from deletions and
// oversized updates. Slot numbers are preserved.
func (p *Page) Compact() {
	type live struct {
		slot, off, length int
	}
	var recs []live
	for s := 0; s < p.slotCount(); s++ {
		off, length := p.slot(s)
		if off != deletedOffset {
			recs = append(recs, live{s, off, length})
		}
	}
	tmp := make([]byte, 0, PageSize)
	offsets := make([]int, len(recs))
	cur := pageHeaderSize
	for i, r := range recs {
		tmp = append(tmp, p.buf[r.off:r.off+r.length]...)
		offsets[i] = cur
		cur += r.length
	}
	copy(p.buf[pageHeaderSize:], tmp)
	for i, r := range recs {
		p.setSlot(r.slot, offsets[i], r.length)
	}
	p.setFreePtr(cur)
}
