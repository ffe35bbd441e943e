package colstore

import (
	"math"
	"testing"

	"statdb/internal/dataset"
	"statdb/internal/storage"
)

// collectRuns drains ScanRunChunks into owned slices.
func collectRuns(t *testing.T, f *File, name string) (vals []int64, nulls []bool, counts []int) {
	t.Helper()
	row := 0
	err := f.ScanRunChunks(name, func(c RunChunk) error {
		if c.Start != row {
			t.Fatalf("%s: chunk starts at %d, expected %d", name, c.Start, row)
		}
		vals = append(vals, c.Vals...)
		nulls = append(nulls, c.Nulls...)
		counts = append(counts, c.Counts...)
		row += c.Rows()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return vals, nulls, counts
}

// TestScanRunChunksSingleRunColumn: a constant column is one run however
// it is encoded — and under Plain the run spans every page boundary, so
// this is also the cross-page coalescing test (each Plain page decodes
// to its own run; the scan's pending-run merge must stitch them).
func TestScanRunChunksSingleRunColumn(t *testing.T) {
	const n = 1700 // several Plain pages
	vs := make([]dataset.Value, n)
	for i := range vs {
		vs[i] = dataset.Int(7)
	}
	for _, enc := range []Encoding{Plain, RLE} {
		_, pool := newPool()
		f, err := Load(pool, intOnly(t, vs), Options{Encode: map[string]Encoding{"X": enc}})
		if err != nil {
			t.Fatal(err)
		}
		vals, nulls, counts := collectRuns(t, f, "X")
		if len(vals) != 1 || vals[0] != 7 || nulls[0] || counts[0] != n {
			t.Fatalf("%v: runs = (%v, %v, %v), want one run of %d sevens", enc, vals, nulls, counts, n)
		}
	}
}

// TestScanRunChunksAllNull: null runs coalesce regardless of the stored
// payload, so an all-null column is one null run.
func TestScanRunChunksAllNull(t *testing.T) {
	const n = 1500
	vs := make([]dataset.Value, n)
	for i := range vs {
		vs[i] = dataset.Null
	}
	for _, enc := range []Encoding{Plain, RLE} {
		_, pool := newPool()
		f, err := Load(pool, intOnly(t, vs), Options{Encode: map[string]Encoding{"X": enc}})
		if err != nil {
			t.Fatal(err)
		}
		vals, nulls, counts := collectRuns(t, f, "X")
		if len(vals) != 1 || !nulls[0] || counts[0] != n {
			t.Fatalf("%v: runs = (%v, %v, %v), want one null run of %d", enc, vals, nulls, counts, n)
		}
	}
}

// TestScanRunChunksEmptyColumn: the zero-row sentinel page yields no
// chunks and no error from every run-path entry point.
func TestScanRunChunksEmptyColumn(t *testing.T) {
	_, pool := newPool()
	f, err := Load(pool, intOnly(t, nil), Options{Encode: map[string]Encoding{"X": RLE}})
	if err != nil {
		t.Fatal(err)
	}
	chunks := 0
	if err := f.ScanRunChunks("X", func(RunChunk) error { chunks++; return nil }); err != nil {
		t.Fatal(err)
	}
	if chunks != 0 {
		t.Errorf("empty column yielded %d run chunks, want 0", chunks)
	}
	vals, nulls, counts, err := f.NumericRunColumn("X")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 0 || len(nulls) != 0 || len(counts) != 0 {
		t.Errorf("NumericRunColumn on empty column: %d runs", len(vals))
	}
	if runs, err := f.ColumnRuns("X"); err != nil || runs != 0 {
		t.Errorf("ColumnRuns = (%d, %v), want 0", runs, err)
	}
}

// TestRLEPageLogicalCap: a constant column longer than the page
// header's 16-bit logical count must split across pages at the cap, and
// the run scan must stitch it back into one run.
func TestRLEPageLogicalCap(t *testing.T) {
	const n = 0xFFFF + 2345
	vs := make([]dataset.Value, n)
	for i := range vs {
		vs[i] = dataset.Int(42)
	}
	_, pool := newPool()
	f, err := Load(pool, intOnly(t, vs), Options{Encode: map[string]Encoding{"X": RLE}})
	if err != nil {
		t.Fatal(err)
	}
	if pages, _ := f.ColumnPages("X"); pages != 2 {
		t.Fatalf("column spans %d pages, want 2", pages)
	}
	vals, nulls, counts := collectRuns(t, f, "X")
	if len(vals) != 1 || vals[0] != 42 || nulls[0] || counts[0] != n {
		t.Fatalf("runs = (%v, %v, %v), want one run of %d", vals, nulls, counts, n)
	}
	if runs, err := f.ColumnRuns("X"); err != nil || runs != 1 {
		t.Fatalf("ColumnRuns = (%d, %v), want 1", runs, err)
	}
	got, valid, err := f.NumericColumn("X")
	if err != nil || len(got) != n {
		t.Fatalf("NumericColumn: %d rows, %v", len(got), err)
	}
	for i := range got {
		if !valid[i] || got[i] != 42 {
			t.Fatalf("row %d = (%g, %v)", i, got[i], valid[i])
		}
	}
}

// TestScanRunChunksSpanningPages: alternating single-row runs overflow
// one RLE page; the scan must keep row accounting continuous across the
// page break, stay maximally coalesced (no two adjacent runs mergeable),
// and cover exactly the column.
func TestScanRunChunksSpanningPages(t *testing.T) {
	const perPage = (storage.PagePayloadSize - 4) / 3
	const n = perPage + 321
	vs := make([]dataset.Value, n)
	for i := range vs {
		vs[i] = dataset.Int(int64(i % 2))
	}
	_, pool := newPool()
	f, err := Load(pool, intOnly(t, vs), Options{Encode: map[string]Encoding{"X": RLE}})
	if err != nil {
		t.Fatal(err)
	}
	if pages, _ := f.ColumnPages("X"); pages != 2 {
		t.Fatalf("column spans %d pages, want 2", pages)
	}
	vals, nulls, counts := collectRuns(t, f, "X")
	total := 0
	for i, c := range counts {
		if c != 1 || nulls[i] || vals[i] != int64(i%2) {
			t.Fatalf("run %d = (%d, %v, %d), want single-row run of %d", i, vals[i], nulls[i], c, i%2)
		}
		if i > 0 && vals[i] == vals[i-1] {
			t.Fatalf("runs %d and %d not coalesced", i-1, i)
		}
		total += c
	}
	if total != n || len(vals) != n {
		t.Fatalf("runs cover %d rows in %d runs, want %d", total, len(vals), n)
	}
}

// TestNumericRunColumnMatchesNumericColumn: expanding the run column
// must reproduce the bulk row column bit for bit, both encodings, int
// and float payloads.
func TestNumericRunColumnMatchesNumericColumn(t *testing.T) {
	ds := censusLike(t, 1800)
	for _, enc := range []Encoding{Plain, RLE} {
		_, pool := newPool()
		f, err := Load(pool, ds, Options{Encode: map[string]Encoding{
			"AGE_GROUP": enc, "POPULATION": enc, "AVE_SALARY": enc,
		}})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"AGE_GROUP", "POPULATION", "AVE_SALARY"} {
			want, wantValid, err := f.NumericColumn(name)
			if err != nil {
				t.Fatal(err)
			}
			vals, nulls, counts, err := f.NumericRunColumn(name)
			if err != nil {
				t.Fatal(err)
			}
			row := 0
			for i := range vals {
				for k := int64(0); k < counts[i]; k++ {
					if nulls[i] == wantValid[row] {
						t.Fatalf("%v/%s row %d: null=%v, valid=%v", enc, name, row, nulls[i], wantValid[row])
					}
					if !nulls[i] && math.Float64bits(vals[i]) != math.Float64bits(want[row]) {
						t.Fatalf("%v/%s row %d: run value %g != column %g", enc, name, row, vals[i], want[row])
					}
					row++
				}
			}
			if row != len(want) {
				t.Fatalf("%v/%s: runs expand to %d rows, column has %d", enc, name, row, len(want))
			}
		}
	}
	if _, _, _, err := (&File{}).NumericRunColumn("NOPE"); err == nil {
		t.Error("missing column accepted")
	}
}

// TestColumnRunsMetadata: RLE answers the coalesced run count from
// metadata and keeps it fresh across the whole-column rewrite an update
// triggers; Plain reports its row count so it never claims a run
// advantage that in-place updates could silently stale.
func TestColumnRunsMetadata(t *testing.T) {
	const n = 1200
	vs := make([]dataset.Value, n)
	for i := range vs {
		vs[i] = dataset.Int(int64(i / 100)) // 12 runs of 100
	}
	_, pool := newPool()
	f, err := Load(pool, intOnly(t, vs), Options{Encode: map[string]Encoding{"X": RLE}})
	if err != nil {
		t.Fatal(err)
	}
	if runs, err := f.ColumnRuns("X"); err != nil || runs != 12 {
		t.Fatalf("ColumnRuns = (%d, %v), want 12", runs, err)
	}
	// Splitting a run in the middle rewrites the column; the metadata
	// must follow (one run becomes three).
	if err := f.UpdateValue("X", 50, dataset.Int(99)); err != nil {
		t.Fatal(err)
	}
	if runs, err := f.ColumnRuns("X"); err != nil || runs != 14 {
		t.Fatalf("ColumnRuns after split = (%d, %v), want 14", runs, err)
	}

	_, pool2 := newPool()
	p, err := Load(pool2, intOnly(t, vs), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if runs, err := p.ColumnRuns("X"); err != nil || runs != n {
		t.Fatalf("Plain ColumnRuns = (%d, %v), want rows %d", runs, err, n)
	}
}

// TestSuggestEncodings: run-heavy columns pick RLE, high-cardinality
// ones stay Plain, and the 4:1 ratio gate is exact.
func TestSuggestEncodings(t *testing.T) {
	sch := dataset.MustSchema(
		dataset.Attribute{Name: "GROUP", Kind: dataset.KindInt},
		dataset.Attribute{Name: "ID", Kind: dataset.KindInt},
		dataset.Attribute{Name: "HALF", Kind: dataset.KindInt},
	)
	ds := dataset.New(sch)
	const n = 800
	for i := 0; i < n; i++ {
		if err := ds.Append(dataset.Row{
			dataset.Int(int64(i / 100)), // 8 runs: well under n/4
			dataset.Int(int64(i)),       // n runs: never
			dataset.Int(int64(i / 2)),   // n/2 runs: over the gate
		}); err != nil {
			t.Fatal(err)
		}
	}
	enc := SuggestEncodings(ds)
	if enc["GROUP"] != RLE {
		t.Errorf("GROUP = %v, want RLE", enc["GROUP"])
	}
	if enc["ID"] != Plain {
		t.Errorf("ID = %v, want Plain", enc["ID"])
	}
	if enc["HALF"] != Plain {
		t.Errorf("HALF = %v, want Plain", enc["HALF"])
	}
	empty := dataset.New(sch)
	for name, e := range SuggestEncodings(empty) {
		if e != Plain {
			t.Errorf("empty data set: %s = %v, want Plain", name, e)
		}
	}
}

// BenchmarkNumericColumn measures the bulk row read; the per-page scratch
// buffers must hold allocations flat regardless of page count.
func BenchmarkNumericColumn(b *testing.B) {
	ds := censusLike(b, 20000)
	_, pool := newPool()
	f, err := Load(pool, ds, Options{Encode: map[string]Encoding{"POPULATION": RLE}})
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"POPULATION", "AVE_SALARY"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				xs, _, err := f.NumericColumn(name)
				if err != nil || len(xs) != ds.Rows() {
					b.Fatalf("read %d rows, err %v", len(xs), err)
				}
			}
		})
	}
}

// BenchmarkScanRunChunks measures the run-native scan against the same
// column; on the RLE column it touches O(runs) memory.
func BenchmarkScanRunChunks(b *testing.B) {
	ds := censusLike(b, 20000)
	_, pool := newPool()
	f, err := Load(pool, ds, Options{Encode: map[string]Encoding{"POPULATION": RLE}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var rows int
		err := f.ScanRunChunks("POPULATION", func(c RunChunk) error {
			rows += c.Rows()
			return nil
		})
		if err != nil || rows != ds.Rows() {
			b.Fatalf("runs cover %d rows, err %v", rows, err)
		}
	}
}

// Rows returns the number of logical rows the chunk spans.
func (c RunChunk) Rows() int {
	n := 0
	for _, k := range c.Counts {
		n += k
	}
	return n
}
