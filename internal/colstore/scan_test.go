package colstore

import (
	"math"
	"testing"

	"statdb/internal/dataset"
	"statdb/internal/storage"
)

func intOnly(t testing.TB, vals []dataset.Value) *dataset.Dataset {
	t.Helper()
	sch := dataset.MustSchema(dataset.Attribute{Name: "X", Kind: dataset.KindInt})
	ds := dataset.New(sch)
	for _, v := range vals {
		if err := ds.Append(dataset.Row{v}); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

// pageStarts returns the first logical row of each page of column name.
func pageStarts(t *testing.T, f *File, name string) []int {
	t.Helper()
	m, err := f.meta(name)
	if err != nil {
		t.Fatal(err)
	}
	return m.rowStart
}

// TestRLEEmptyColumn: a zero-row RLE column writes one sentinel page
// (logical count 0, no runs) that every read path must skip cleanly.
func TestRLEEmptyColumn(t *testing.T) {
	_, pool := newPool()
	f, err := Load(pool, intOnly(t, nil), Options{Encode: map[string]Encoding{"X": RLE}})
	if err != nil {
		t.Fatal(err)
	}
	pages, err := f.ColumnPages("X")
	if err != nil {
		t.Fatal(err)
	}
	if pages != 1 {
		t.Errorf("empty column has %d pages, want 1 sentinel", pages)
	}
	vals, _, _, err := f.NumericRunColumn("X")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 0 {
		t.Errorf("empty column yielded %d runs, want 0", len(vals))
	}
	xs, valid, err := f.NumericColumn("X")
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 0 || len(valid) != 0 {
		t.Errorf("NumericColumn on empty column: %d values", len(xs))
	}
	ds, err := f.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Rows() != 0 {
		t.Errorf("materialized %d rows, want 0", ds.Rows())
	}
}

// TestRLEAllNullRuns: a column that is nothing but null runs must decode
// back to all-null and carry no valid observations.
func TestRLEAllNullRuns(t *testing.T) {
	const n = 1500
	vals := make([]dataset.Value, n)
	for i := range vals {
		vals[i] = dataset.Null
	}
	_, pool := newPool()
	f, err := Load(pool, intOnly(t, vals), Options{Encode: map[string]Encoding{"X": RLE}})
	if err != nil {
		t.Fatal(err)
	}
	_, nulls, counts, err := f.NumericRunColumn("X")
	if err != nil {
		t.Fatal(err)
	}
	var seen int64
	for i, c := range counts {
		if !nulls[i] {
			t.Fatalf("run %d decoded non-null", i)
		}
		seen += c
	}
	if seen != n {
		t.Fatalf("runs cover %d of %d rows", seen, n)
	}
	_, valid, err := f.NumericColumn("X")
	if err != nil {
		t.Fatal(err)
	}
	if len(valid) != n {
		t.Fatalf("column has %d of %d rows", len(valid), n)
	}
	for i, ok := range valid {
		if ok {
			t.Fatalf("row %d marked valid in all-null column", i)
		}
	}
}

// TestRLERunEndsExactlyAtPageBoundary packs runs so the first page's
// run area (payload minus the 4-byte RLE header) holds as many
// three-byte runs (flag + one-byte count + one-byte value) as fit, with
// under one run's width to spare. The next run must land at the start of
// page two with rowStart continuous across the boundary.
func TestRLERunEndsExactlyAtPageBoundary(t *testing.T) {
	const perPage = (storage.PagePayloadSize - 4) / 3 // three-byte runs filling page one
	const n = perPage + 5
	vals := make([]dataset.Value, n)
	for i := range vals {
		vals[i] = dataset.Int(int64(i % 2)) // alternating: every run has count 1
	}
	_, pool := newPool()
	f, err := Load(pool, intOnly(t, vals), Options{Encode: map[string]Encoding{"X": RLE}})
	if err != nil {
		t.Fatal(err)
	}
	pages, err := f.ColumnPages("X")
	if err != nil {
		t.Fatal(err)
	}
	if pages != 2 {
		t.Fatalf("column spans %d pages, want exactly 2", pages)
	}
	xs, valid, err := f.NumericColumn("X")
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != n {
		t.Fatalf("read %d of %d rows", len(xs), n)
	}
	for row, x := range xs {
		if !valid[row] || x != float64(row%2) {
			t.Fatalf("row %d decoded (%g, valid=%v)", row, x, valid[row])
		}
	}
	if starts := pageStarts(t, f, "X"); len(starts) != 2 || starts[0] != 0 || starts[1] != perPage {
		t.Fatalf("page starts %v, want [0 %d]", starts, perPage)
	}
}

// TestRLEOversizeRunMovesWholeToNextPage: a run too wide for the space
// left on a page is never split mid-run — it opens the next page.
func TestRLEOversizeRunMovesWholeToNextPage(t *testing.T) {
	const fill = (storage.PagePayloadSize-4)/3 - 1 // leave a few bytes: too few for the wide run
	vals := make([]dataset.Value, 0, fill+200)
	for i := 0; i < fill; i++ {
		vals = append(vals, dataset.Int(int64(i%2)))
	}
	// Wide run: count 200 (2-byte uvarint) of value 300 (2-byte varint),
	// 5 encoded bytes < the 6 left... so pick value 1<<40 (6-byte varint,
	// 9 total) to overflow the remaining space.
	for i := 0; i < 200; i++ {
		vals = append(vals, dataset.Int(1<<40))
	}
	_, pool := newPool()
	f, err := Load(pool, intOnly(t, vals), Options{Encode: map[string]Encoding{"X": RLE}})
	if err != nil {
		t.Fatal(err)
	}
	if starts := pageStarts(t, f, "X"); len(starts) != 2 || starts[1] != fill {
		t.Fatalf("page starts %v, want second page to begin at %d", starts, fill)
	}
	xs, valid, err := f.NumericColumn("X")
	if err != nil {
		t.Fatal(err)
	}
	for i := fill; i < len(xs); i++ {
		if !valid[i] || xs[i] != float64(int64(1)<<40) {
			t.Fatalf("row %d = (%g, %v)", i, xs[i], valid[i])
		}
	}
}

// TestNumericColumnMatchesScanColumn: the bulk path, which decodes each
// page straight into the column, must decode the same rows with the same
// values as the per-value path — both encodings, columns spanning several
// pages, int and float payloads. (The run path is held to this column by
// TestNumericRunColumnMatchesNumericColumn.) The second half covers
// nulls, special floats, a partial last page and the pages an update
// leaves: Plain pages patched in place, RLE columns re-encoded.
func TestNumericColumnMatchesScanColumn(t *testing.T) {
	ds := censusLike(t, 2000)
	for _, enc := range []Encoding{Plain, RLE} {
		_, pool := newPool()
		f, err := Load(pool, ds, Options{Encode: map[string]Encoding{
			"SEX": enc, "AGE_GROUP": enc, "POPULATION": enc, "AVE_SALARY": enc,
		}})
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < ds.Schema().Len(); c++ {
			name := ds.Schema().At(c).Name
			if ds.Schema().At(c).Kind == dataset.KindString {
				if _, _, err := f.NumericColumn(name); err == nil {
					t.Errorf("%s/%s: numeric read of a string column should error", enc, name)
				}
				continue
			}
			if pages, err := f.ColumnPages(name); err != nil || (enc == Plain && pages < 2) {
				t.Fatalf("%s/%s: %d pages (err %v), want a page boundary", enc, name, pages, err)
			}
			checkFusedMatchesScan(t, f, name, enc.String())
		}
	}

	const n = 3*plainCap + 17
	sch := dataset.MustSchema(
		dataset.Attribute{Name: "I", Kind: dataset.KindInt},
		dataset.Attribute{Name: "F", Kind: dataset.KindFloat},
	)
	special := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN(), -1.5e300, 5e-324}
	ds = dataset.New(sch)
	for i := 0; i < n; i++ {
		iv, fv := dataset.Int(int64(i/7)-200), dataset.Float(special[i%len(special)])
		if i%11 == 0 {
			iv = dataset.Null
		}
		if i%5 != 0 {
			fv = dataset.Float(float64(i/13) * 0.25)
		}
		if i%17 == 3 {
			fv = dataset.Null
		}
		if err := ds.Append(dataset.Row{iv, fv}); err != nil {
			t.Fatal(err)
		}
	}
	for _, enc := range []Encoding{Plain, RLE} {
		_, pool := newPool()
		f, err := Load(pool, ds, Options{Encode: map[string]Encoding{"I": enc, "F": enc}})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"I", "F"} {
			checkFusedMatchesScan(t, f, name, enc.String())
		}
		rows := []int32{0, 1, 3, plainCap - 1, plainCap, 2*plainCap + 5, n - 1}
		at := func(k int) dataset.Value {
			if k%3 == 0 {
				return dataset.Null
			}
			return dataset.Int(int64(-k))
		}
		if err := f.UpdateRows("I", rows, at); err != nil {
			t.Fatal(err)
		}
		if err := f.UpdateRows("F", rows, func(k int) dataset.Value {
			if v := at(k); !v.IsNull() {
				return dataset.Float(math.Inf(-k % 2))
			}
			return dataset.Null
		}); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"I", "F"} {
			checkFusedMatchesScan(t, f, name, enc.String()+" updated")
		}
	}
}

// checkFusedMatchesScan holds NumericColumn to the per-value ScanColumn
// path bit for bit: the same rows, the same nulls, the same float64 bits.
func checkFusedMatchesScan(t *testing.T, f *File, name, stage string) {
	t.Helper()
	var ref []dataset.Value
	if err := f.ScanColumn(name, func(_ int, v dataset.Value) bool {
		ref = append(ref, v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	xs, valid, err := f.NumericColumn(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != len(ref) || len(valid) != len(ref) {
		t.Fatalf("%s %s: column has %d/%d rows, scan saw %d", stage, name, len(xs), len(valid), len(ref))
	}
	for row, v := range ref {
		want := 0.0
		if !v.IsNull() {
			want = v.AsFloat()
		}
		if valid[row] == v.IsNull() || math.Float64bits(xs[row]) != math.Float64bits(want) {
			t.Fatalf("%s %s row %d: column (%g, %v), scan %v", stage, name, row, xs[row], valid[row], v)
		}
	}
}

// TestNumericColumnAllocatesOnlyItsResult: a read of 20 000 rows through
// a pool far smaller than the column allocates the two slices it returns
// and nothing per page.
func TestNumericColumnAllocatesOnlyItsResult(t *testing.T) {
	ds := censusLike(t, 20000)
	_, pool := newPool()
	f, err := Load(pool, ds, Options{Encode: map[string]Encoding{"POPULATION": RLE}})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"POPULATION", "AVE_SALARY"} {
		if pages, _ := f.ColumnPages(name); pages <= 16 {
			t.Fatalf("%s spans %d pages; the 16-frame pool holds it", name, pages)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := f.NumericColumn(name); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 2 {
			t.Errorf("NumericColumn(%s) allocates %v times, want 2", name, allocs)
		}
	}
}
