package colstore

import (
	"encoding/binary"
	"fmt"
	"math"

	"statdb/internal/storage"
)

// This file declares the two column page layouts once; the writers,
// patchPlain and every decoder reach page bytes only through them. Both
// live in the page payload behind the checksum envelope.

// Plain page layout: uint16 value count, validity bitmap of plainCap
// bits (a set bit is a non-null value), then count 8-byte little-endian
// payloads. plainCap is chosen so a full page fits:
// 2 + 60 + 480*8 = 3902 <= storage.PagePayloadSize (4088).
const (
	plainCap       = 480
	plainCountOff  = 0
	plainBitmapOff = 2
	plainDataOff   = plainBitmapOff + plainCap/8
)

// plainPage is a Plain page's payload.
type plainPage []byte

func (pg plainPage) count() int { return int(binary.LittleEndian.Uint16(pg[plainCountOff:])) }

func (pg plainPage) bitmap() []byte { return pg[plainBitmapOff:plainDataOff] }

func (pg plainPage) data() []byte { return pg[plainDataOff:] }

// set writes cell i's payload and validity bit.
func (pg plainPage) set(i int, payload int64, null bool) {
	binary.LittleEndian.PutUint64(pg.data()[i*8:], uint64(payload))
	if null {
		pg.bitmap()[i/8] &^= 1 << (i % 8)
	} else {
		pg.bitmap()[i/8] |= 1 << (i % 8)
	}
}

// RLE page layout: uint16 logical row count, uint16 run count, then the
// runs (rle.go's run codec).
const (
	rleLogicalOff = 0
	rleRunsOff    = 2
	rleHeader     = 4
)

// rlePage is an RLE page's payload.
type rlePage []byte

func (pg rlePage) logical() int { return int(binary.LittleEndian.Uint16(pg[rleLogicalOff:])) }

func (pg rlePage) runCount() int { return int(binary.LittleEndian.Uint16(pg[rleRunsOff:])) }

func (pg rlePage) setHeader(logical, runs int) {
	binary.LittleEndian.PutUint16(pg[rleLogicalOff:], uint16(logical))
	binary.LittleEndian.PutUint16(pg[rleRunsOff:], uint16(runs))
}

// eachRun calls fn with every run of the page in order, and fails with
// ErrCorrupt when a run does not decode or the runs do not cover exactly
// the header's logical count; fn never sees a run past that count.
func (pg rlePage) eachRun(fn func(r run) error) error {
	logical, nruns := pg.logical(), pg.runCount()
	rest := []byte(pg[rleHeader:])
	covered := 0
	for i := 0; i < nruns; i++ {
		r, tail, err := decodeRun(rest)
		if err != nil {
			return fmt.Errorf("%w: %w", storage.ErrCorrupt, err)
		}
		if r.count < 1 || r.count > logical-covered {
			return fmt.Errorf("colstore: page run %d of %d rows overruns the header's %d: %w",
				i, r.count, logical, storage.ErrCorrupt)
		}
		rest = tail
		covered += r.count
		if err := fn(r); err != nil {
			return err
		}
	}
	if covered != logical {
		return fmt.Errorf("colstore: page runs cover %d rows, header says %d: %w",
			covered, logical, storage.ErrCorrupt)
	}
	return nil
}

// encodePlainPage writes vals and nulls as a whole Plain page image.
func encodePlainPage(buf []byte, vals []int64, nulls []bool) {
	clear(buf)
	pg := plainPage(buf)
	binary.LittleEndian.PutUint16(pg[plainCountOff:], uint16(len(vals)))
	for i, v := range vals {
		pg.set(i, v, nulls[i])
	}
}

// decodePlainPageInto decodes a Plain page into the caller's scratch
// slices (grown as needed), for the per-value paths.
func decodePlainPageInto(buf []byte, vals []int64, nulls []bool) ([]int64, []bool) {
	pg := plainPage(buf)
	n := pg.count()
	bitmap, data := pg.bitmap(), pg.data()
	vals = growInt64(vals, n)
	nulls = growBool(nulls, n)
	for i := 0; i < n; i++ {
		vals[i] = int64(binary.LittleEndian.Uint64(data[i*8:]))
		nulls[i] = bitmap[i/8]&(1<<(i%8)) == 0
	}
	return vals, nulls
}

// decodeRLEPageInto expands an RLE page's runs to one value per row,
// reusing the caller's scratch slices.
func decodeRLEPageInto(buf []byte, vals []int64, nulls []bool) ([]int64, []bool, error) {
	vals, nulls = vals[:0], nulls[:0]
	err := rlePage(buf).eachRun(func(r run) error {
		for j := 0; j < r.count; j++ {
			vals = append(vals, r.value)
			nulls = append(nulls, r.null)
		}
		return nil
	})
	return vals, nulls, err
}

// decodeRLEPageRuns parses an RLE page's runs without expansion,
// appending to dst.
func decodeRLEPageRuns(buf []byte, dst []run) ([]run, error) {
	err := rlePage(buf).eachRun(func(r run) error {
		dst = append(dst, r)
		return nil
	})
	return dst, err
}

// Fused decoders: a page decodes straight into the column NumericColumn
// returns, widened to float64 in the same pass, with no per-row staging.
// out and valid start at the page's first row and arrive zeroed, which
// is what a null cell leaves; a page holding more rows than they have
// room for is corrupt.

// widen converts a stored payload to the float64 a numeric column reads.
func widen(payload int64, float bool) float64 {
	if float {
		return math.Float64frombits(uint64(payload))
	}
	return float64(payload)
}

// decodePlainNumeric decodes a Plain page into out and valid.
func decodePlainNumeric(buf []byte, float bool, out []float64, valid []bool) error {
	pg := plainPage(buf)
	n := pg.count()
	if n > plainCap || n > len(out) {
		return fmt.Errorf("colstore: plain page holds %d values, room for %d: %w",
			n, min(plainCap, len(out)), storage.ErrCorrupt)
	}
	bitmap, data := pg.bitmap(), pg.data()[:8*n]
	out, valid = out[:n], valid[:n]
	for i := range out {
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			out[i] = widen(int64(binary.LittleEndian.Uint64(data[8*i:])), float)
			valid[i] = true
		}
	}
	return nil
}

// decodeRLENumeric decodes an RLE page into out and valid, one fill per
// run.
func decodeRLENumeric(buf []byte, float bool, out []float64, valid []bool) error {
	pg := rlePage(buf)
	if pg.logical() > len(out) {
		return fmt.Errorf("colstore: rle page holds %d rows, room for %d: %w",
			pg.logical(), len(out), storage.ErrCorrupt)
	}
	row := 0
	return pg.eachRun(func(r run) error {
		if !r.null {
			v := widen(r.value, float)
			xs, ok := out[row:row+r.count], valid[row:row+r.count]
			for j := range xs {
				xs[j] = v
				ok[j] = true
			}
		}
		row += r.count
		return nil
	})
}

// growInt64 returns s truncated/extended to length n, reallocating only
// when capacity is short.
func growInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
