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
//	           uint16 offset, uint16 length.
//
// Records are at most PageSize-16 bytes, so any record that fits in a
// page fits with its slot. Pages are append-only: a record is written
// once, by Insert, and never changed or removed in place; a file that
// changes is rewritten whole.
const (
	pageHeaderSize = PageEnvelopeSize + 4
	slotSize       = 4
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

// NumSlots returns the number of records in the page.
func (p *Page) NumSlots() int { return p.slotCount() }

// FreeSpace returns the bytes available for a new record (including its
// slot entry).
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
	return p.buf[off : off+length], nil
}
