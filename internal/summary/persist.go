package summary

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"statdb/internal/dataset"
	"statdb/internal/stats"
	"statdb/internal/storage"
)

// Persistence: the Summary Database "may itself become relatively large"
// (Section 3.2), so it is storable: entries go to a heap file of
// (function, attributes, freshness, result) records, one per entry; Load
// rebuilds the in-memory (attributes..., function) index, with each
// entry's reach keys — the paper's clustering and index choice — by
// scanning it. Maintenance state (kept states, windows)
// is rebuilt lazily after Load, exactly like the invalidate-fallback of
// Section 4.3.

// resultSchema is the stored row layout.
func resultSchema() *dataset.Schema {
	return dataset.MustSchema(
		dataset.Attribute{Name: "ATTRS", Kind: dataset.KindString, Category: true},
		dataset.Attribute{Name: "FUNCTION", Kind: dataset.KindString, Category: true},
		dataset.Attribute{Name: "FRESH", Kind: dataset.KindInt},
		dataset.Attribute{Name: "RESULT", Kind: dataset.KindString},
	)
}

// encodeResult serializes a Result: kind byte then payload.
func encodeResult(r Result) []byte {
	var out []byte
	out = append(out, byte(r.Kind))
	switch r.Kind {
	case ScalarResult:
		out = appendF64(out, r.Scalar)
	case VectorResult:
		out = binary.AppendUvarint(out, uint64(len(r.Vector)))
		for _, v := range r.Vector {
			out = appendF64(out, v)
		}
	case HistogramResult:
		if r.Hist == nil {
			out = binary.AppendUvarint(out, 0)
			return out
		}
		out = binary.AppendUvarint(out, uint64(len(r.Hist.Edges)))
		for _, e := range r.Hist.Edges {
			out = appendF64(out, e)
		}
		for _, c := range r.Hist.Counts {
			out = binary.AppendUvarint(out, uint64(c))
		}
	case TextResult:
		out = append(out, r.Text...)
	}
	return out
}

func appendF64(dst []byte, v float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return append(dst, b[:]...)
}

func takeF64(buf []byte) (float64, []byte, error) {
	if len(buf) < 8 {
		return 0, nil, fmt.Errorf("summary: truncated float")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:8])), buf[8:], nil
}

// decodeResult parses encodeResult's output.
func decodeResult(buf []byte) (Result, error) {
	if len(buf) == 0 {
		return Result{}, fmt.Errorf("summary: empty result encoding")
	}
	kind := ResultKind(buf[0])
	buf = buf[1:]
	switch kind {
	case ScalarResult:
		v, _, err := takeF64(buf)
		if err != nil {
			return Result{}, err
		}
		return ScalarOf(v), nil
	case VectorResult:
		n, sz := binary.Uvarint(buf)
		if sz <= 0 {
			return Result{}, fmt.Errorf("summary: bad vector length")
		}
		buf = buf[sz:]
		// Bound the allocation by the bytes actually present: a corrupt
		// length must fail cleanly, not allocate gigabytes.
		if n > uint64(len(buf))/8 {
			return Result{}, fmt.Errorf("summary: vector length %d exceeds %d payload bytes", n, len(buf))
		}
		vec := make([]float64, n)
		var err error
		for i := range vec {
			vec[i], buf, err = takeF64(buf)
			if err != nil {
				return Result{}, err
			}
		}
		return VectorOf(vec), nil
	case HistogramResult:
		n, sz := binary.Uvarint(buf)
		if sz <= 0 {
			return Result{}, fmt.Errorf("summary: bad histogram length")
		}
		buf = buf[sz:]
		if n == 0 {
			return HistogramOf(nil), nil
		}
		// Same bound as vectors: n edges need 8n bytes before the counts.
		if n > uint64(len(buf))/8 {
			return Result{}, fmt.Errorf("summary: histogram with %d edges exceeds %d payload bytes", n, len(buf))
		}
		h := &stats.Histogram{Edges: make([]float64, n), Counts: make([]int, n-1)}
		var err error
		for i := range h.Edges {
			h.Edges[i], buf, err = takeF64(buf)
			if err != nil {
				return Result{}, err
			}
		}
		for i := range h.Counts {
			c, sz := binary.Uvarint(buf)
			if sz <= 0 {
				return Result{}, fmt.Errorf("summary: bad histogram count")
			}
			h.Counts[i] = int(c)
			buf = buf[sz:]
		}
		return HistogramOf(h), nil
	case TextResult:
		return TextOf(string(buf)), nil
	}
	return Result{}, fmt.Errorf("summary: unknown result kind %d", kind)
}

// Save writes every entry to the heap file. The caller records the heap
// file's pages elsewhere (the Store's commit record).
func (db *DB) Save(h *storage.HeapFile) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !h.Schema().Equal(resultSchema()) {
		return fmt.Errorf("summary: heap file has schema %s, want the summary schema", h.Schema())
	}
	for _, e := range db.entries {
		fresh := int64(0)
		if e.fresh {
			fresh = 1
		}
		_, err := h.Insert(dataset.Row{
			dataset.String(strings.Join(e.attrs, "\x1f")),
			dataset.String(e.fn),
			dataset.Int(fresh),
			dataset.String(string(encodeResult(e.result))),
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// LoadReport accounts for what a tolerant load salvaged and what it had
// to give up. Because the Summary Database is a cache over the concrete
// view (Section 3.2), giving up is always safe: a dropped entry is a
// future miss, a stale entry a future recompute.
type LoadReport struct {
	Loaded       int // entries restored fresh as stored
	StaleMarked  int // entries whose key decoded but whose result did not: kept, marked for recompute
	Dropped      int // records that did not decode at all
	CorruptPages int // whole pages skipped on checksum failure
}

func (r LoadReport) String() string {
	return fmt.Sprintf("loaded=%d stale=%d dropped=%d corrupt_pages=%d",
		r.Loaded, r.StaleMarked, r.Dropped, r.CorruptPages)
}

// Load reads every record of h back into a fresh cache attached to the
// same Management Database. Entries come back without maintenance state:
// the first post-load update to an attribute invalidates its entries, and
// the next read rebuilds — the safe lazy path.
//
// Load degrades rather than fails on corruption: a page that fails its
// checksum is skipped whole, a record that does not decode is dropped,
// and a record whose (function, attributes) key decodes but whose result
// payload does not is kept as a stale entry so the next lookup recomputes
// it from the view. The report says what happened; the error is reserved
// for non-corruption failures (wrong schema, device errors).
func Load(db *DB, h *storage.HeapFile) (LoadReport, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	var rep LoadReport
	if !h.Schema().Equal(resultSchema()) {
		return rep, fmt.Errorf("summary: heap file has schema %s, want the summary schema", h.Schema())
	}
	err := h.ScanTolerant(func(_ storage.RID, row dataset.Row) bool {
		// DecodeRow validates the wire format, not the schema kinds: a
		// damaged record can decode into the wrong kinds, so check before
		// every accessor (the dataset.Value accessors panic by contract).
		if len(row) != 4 ||
			row[0].Kind() != dataset.KindString ||
			row[1].Kind() != dataset.KindString ||
			row[2].Kind() != dataset.KindInt ||
			row[3].Kind() != dataset.KindString {
			rep.Dropped++
			return true
		}
		attrs := strings.Split(row[0].AsString(), "\x1f")
		e := &entry{
			fn:    row[1].AsString(),
			attrs: attrs,
		}
		if _, dup := db.idx.Get(entryKey(e.fn, e.attrs)); dup {
			rep.Dropped++ // a damaged record that aliases a live key
			return true
		}
		res, err := decodeResult([]byte(row[3].AsString()))
		if err != nil {
			// The key survived but the result did not: keep the entry
			// stale so the next lookup recomputes — degrade, not fail.
			e.fresh = false
			rep.StaleMarked++
			db.insert(e)
			return true
		}
		e.result = res
		e.fresh = row[2].AsInt() == 1
		db.insert(e)
		rep.Loaded++
		return true
	}, func(c storage.Corruption) {
		if c.Slot < 0 {
			rep.CorruptPages++
		} else {
			rep.Dropped++
		}
	})
	return rep, err
}

// NewSummaryHeapFile creates a heap file with the summary row schema.
func NewSummaryHeapFile(pool *storage.BufferPool) *storage.HeapFile {
	return storage.NewHeapFile(pool, resultSchema())
}
