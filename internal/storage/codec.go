package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"statdb/internal/dataset"
)

// Record codec: a dataset.Row serializes as one tag byte per value
// followed by the payload.
//
//	0x00            null
//	0x01 <varint>   int64 (zig-zag varint)
//	0x02 <8 bytes>  float64 (IEEE bits, little endian)
//	0x03 <uvarint><bytes> string
const (
	tagNull   = 0x00
	tagInt    = 0x01
	tagFloat  = 0x02
	tagString = 0x03
)

// EncodeRow serializes r, appending to dst and returning the result.
func EncodeRow(dst []byte, r dataset.Row) []byte {
	for _, v := range r {
		switch v.Kind() {
		case dataset.KindInvalid:
			dst = append(dst, tagNull)
		case dataset.KindInt:
			dst = appendInt(dst, v.AsInt())
		case dataset.KindFloat:
			dst = appendFloat(dst, v.AsFloat())
		case dataset.KindString:
			dst = appendString(dst, v.AsString())
		}
	}
	return dst
}

// RecordEncoder returns the encoder of ds's records: enc(dst, i) appends
// the bytes EncodeRow(dst, ds.RowAt(i)) appends, read straight from ds's
// typed columns, so no cell is boxed into a Value.
func RecordEncoder(ds *dataset.Dataset) func(dst []byte, i int) []byte {
	type column struct {
		kind  dataset.Kind
		ints  []int64
		flts  []float64
		strs  []string
		valid []bool
	}
	cols := make([]column, ds.Schema().Len())
	for c := range cols {
		col := &cols[c]
		col.kind, col.valid = ds.Schema().At(c).Kind, ds.Valid(c)
		switch col.kind {
		case dataset.KindInt:
			col.ints, _ = ds.Ints(c)
		case dataset.KindFloat:
			col.flts, _ = ds.Floats(c)
		case dataset.KindString:
			col.strs, _ = ds.Strings(c)
		}
	}
	return func(dst []byte, i int) []byte {
		for c := range cols {
			col := &cols[c]
			switch {
			case !col.valid[i]:
				dst = append(dst, tagNull)
			case col.kind == dataset.KindInt:
				dst = appendInt(dst, col.ints[i])
			case col.kind == dataset.KindFloat:
				dst = appendFloat(dst, col.flts[i])
			default:
				dst = appendString(dst, col.strs[i])
			}
		}
		return dst
	}
}

func appendInt(dst []byte, v int64) []byte {
	return binary.AppendVarint(append(dst, tagInt), v)
}

func appendFloat(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(append(dst, tagFloat), math.Float64bits(v))
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(append(dst, tagString), uint64(len(s)))
	return append(dst, s...)
}

// DecodeRow parses a record of n values from buf, requiring buf to be
// fully consumed.
func DecodeRow(buf []byte, n int) (dataset.Row, error) {
	row, err := decodeRowInto(make(dataset.Row, 0, n), buf, n)
	if err != nil {
		return nil, err
	}
	return row, nil
}

// decodeRowInto is DecodeRow decoding into dst's storage: the row it
// returns, on failure too, reuses dst's array whenever it holds n values.
func decodeRowInto(dst dataset.Row, buf []byte, n int) (dataset.Row, error) {
	row, rest, err := appendRow(dst[:0], buf, n)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("storage: %d trailing bytes after %d values", len(rest), n)
	}
	return row, err
}

// DecodeRowPrefix parses a record of n values from the front of buf
// into dst's storage and returns it with the unconsumed tail, for block
// formats that concatenate rows: a reader that decodes record after
// record into one row allocates nothing per record but its strings.
func DecodeRowPrefix(dst dataset.Row, buf []byte, n int) (dataset.Row, []byte, error) {
	row, rest, err := appendRow(dst[:0], buf, n)
	if err != nil {
		return nil, nil, err
	}
	return row, rest, nil
}

// appendRow appends the n values at the front of buf to r and returns
// it with the unconsumed tail; on failure r holds the values before the
// bad one.
func appendRow(r dataset.Row, buf []byte, n int) (dataset.Row, []byte, error) {
	for i := 0; i < n; i++ {
		if len(buf) == 0 {
			return r, nil, fmt.Errorf("storage: record truncated at value %d of %d", i, n)
		}
		tag := buf[0]
		buf = buf[1:]
		switch tag {
		case tagNull:
			r = append(r, dataset.Null)
		case tagInt:
			v, sz := binary.Varint(buf)
			if sz <= 0 {
				return r, nil, fmt.Errorf("storage: bad varint at value %d", i)
			}
			buf = buf[sz:]
			r = append(r, dataset.Int(v))
		case tagFloat:
			if len(buf) < 8 {
				return r, nil, fmt.Errorf("storage: truncated float at value %d", i)
			}
			bits := binary.LittleEndian.Uint64(buf[:8])
			buf = buf[8:]
			r = append(r, dataset.Float(math.Float64frombits(bits)))
		case tagString:
			l, sz := binary.Uvarint(buf)
			if sz <= 0 || uint64(len(buf)-sz) < l {
				return r, nil, fmt.Errorf("storage: truncated string at value %d", i)
			}
			buf = buf[sz:]
			r = append(r, dataset.String(string(buf[:l])))
			buf = buf[l:]
		default:
			return r, nil, fmt.Errorf("storage: unknown value tag 0x%02x at value %d", tag, i)
		}
	}
	return r, buf, nil
}
