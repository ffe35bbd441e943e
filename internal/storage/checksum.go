package storage

import (
	"encoding/binary"
	"hash/crc32"
)

// Page envelope. Every page written through the buffer pool carries an
// 8-byte envelope ahead of its payload:
//
//	offset 0: uint16 magic 0x5350 ("PS" little endian)
//	offset 2: uint8  layout version (2)
//	offset 3: uint8  flags (reserved, 0)
//	offset 4: uint32 CRC32-Castagnoli over bytes [8:PageSize]
//
// The checksum is computed when the page is flushed to a device (Seal)
// and verified when it is read back (VerifyPageBuf), so a torn write or
// bit flip on the device surfaces as a CorruptError at the next fetch
// instead of as garbage decoded downstream. There is one layout: an
// image whose magic, version or flags are anything else is corrupt, so
// damage to the envelope itself cannot route around the checksum.
const (
	// PageEnvelopeSize is the bytes reserved at the front of every page
	// for the magic, version and checksum.
	PageEnvelopeSize = 8
	// PagePayloadSize is the bytes of a page usable by page formats
	// (slotted records, column segments, index nodes).
	PagePayloadSize = PageSize - PageEnvelopeSize

	pageMagic     = 0x5350
	pageVersion   = 2
	envelopeCRCOf = 4 // offset of the CRC field
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// initEnvelope stamps the magic and version with a zero checksum; the
// real checksum is written by SealPage at flush time.
func initEnvelope(buf []byte) {
	binary.LittleEndian.PutUint16(buf[0:2], pageMagic)
	buf[2] = pageVersion
	buf[3] = 0
	binary.LittleEndian.PutUint32(buf[envelopeCRCOf:envelopeCRCOf+4], 0)
}

// SealPage recomputes and stores the payload checksum of a page image.
func SealPage(buf []byte) {
	crc := crc32.Checksum(buf[PageEnvelopeSize:], castagnoli)
	binary.LittleEndian.PutUint32(buf[envelopeCRCOf:envelopeCRCOf+4], crc)
}

// VerifyPageBuf checks a page image read from a device: the envelope
// must be exactly the one initEnvelope stamps and the payload must match
// its checksum. Anything else is a CorruptError for page id wrapping
// ErrCorrupt — including an image that was allocated but never written.
func VerifyPageBuf(buf []byte, id PageID) error {
	if len(buf) != PageSize ||
		binary.LittleEndian.Uint16(buf[0:2]) != pageMagic ||
		buf[2] != pageVersion || buf[3] != 0 {
		return &CorruptError{Page: id, Slot: -1, Off: -1,
			Detail: "bad page envelope"}
	}
	want := binary.LittleEndian.Uint32(buf[envelopeCRCOf : envelopeCRCOf+4])
	got := crc32.Checksum(buf[PageEnvelopeSize:], castagnoli)
	if got != want {
		return &CorruptError{Page: id, Slot: -1, Off: -1,
			Detail: "page checksum mismatch"}
	}
	return nil
}
