package colstore

import (
	"maps"
	"math"
	"slices"
	"testing"

	"statdb/internal/dataset"
	"statdb/internal/storage"
)

// collectRuns reads the column's runs through NumericRunColumn.
func collectRuns(t *testing.T, f *File, name string) (vals []float64, nulls []bool, counts []int64) {
	t.Helper()
	vals, nulls, counts, err := f.NumericRunColumn(name)
	if err != nil {
		t.Fatal(err)
	}
	return vals, nulls, counts
}

// TestNumericRunColumnSingleRun: a constant column is one run however
// it is encoded — and under Plain the run spans every page boundary, so
// this is also the cross-page coalescing test (each Plain page decodes
// to its own run; the read must stitch them).
func TestNumericRunColumnSingleRun(t *testing.T) {
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

// TestNumericRunColumnAllNull: null runs coalesce regardless of the
// stored payload, so an all-null column is one null run.
func TestNumericRunColumnAllNull(t *testing.T) {
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

// TestNumericRunColumnEmptyColumn: the zero-row sentinel page yields no
// runs and no error from every run-path entry point.
func TestNumericRunColumnEmptyColumn(t *testing.T) {
	_, pool := newPool()
	f, err := Load(pool, intOnly(t, nil), Options{Encode: map[string]Encoding{"X": RLE}})
	if err != nil {
		t.Fatal(err)
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

// TestNumericRunColumnSpanningPages: alternating single-row runs
// overflow one RLE page; the read must keep row accounting continuous
// across the page break, stay maximally coalesced (no two adjacent runs
// mergeable), and cover exactly the column.
func TestNumericRunColumnSpanningPages(t *testing.T) {
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
		if c != 1 || nulls[i] || vals[i] != float64(i%2) {
			t.Fatalf("run %d = (%g, %v, %d), want single-row run of %d", i, vals[i], nulls[i], c, i%2)
		}
		if i > 0 && vals[i] == vals[i-1] {
			t.Fatalf("runs %d and %d not coalesced", i-1, i)
		}
		total += int(c)
	}
	if total != n || len(vals) != n {
		t.Fatalf("runs cover %d rows in %d runs, want %d", total, len(vals), n)
	}
}

// TestNumericRunColumnCoalescesOnPayload: runs coalesce on the stored
// payload, under both encodings and across a page break — -0 and +0
// stay separate runs, and NaNs of one bit pattern merge into one.
func TestNumericRunColumnCoalescesOnPayload(t *testing.T) {
	const k = 700 // several Plain pages per run
	negZero := math.Copysign(0, -1)
	ds := dataset.New(dataset.MustSchema(dataset.Attribute{Name: "X", Kind: dataset.KindFloat}))
	for _, x := range []float64{negZero, 0, math.NaN()} {
		for range k {
			if err := ds.Append(dataset.Row{dataset.Float(x)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, enc := range []Encoding{Plain, RLE} {
		_, pool := newPool()
		f, err := Load(pool, ds, Options{Encode: map[string]Encoding{"X": enc}})
		if err != nil {
			t.Fatal(err)
		}
		vals, _, counts := collectRuns(t, f, "X")
		if len(vals) != 3 || !slices.Equal(counts, []int64{k, k, k}) ||
			!math.Signbit(vals[0]) || vals[1] != 0 || math.Signbit(vals[1]) || !math.IsNaN(vals[2]) {
			t.Fatalf("%v: runs = (%v, %v), want -0, +0 and NaN runs of %d", enc, vals, counts, k)
		}
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

// refRuns and refColumnValues are SuggestEncodings' run count and
// Load's column extraction as they read boxed cells, compared by Value
// equality: null equals null, -0 equals +0, NaN equals nothing.
func refRuns(ds *dataset.Dataset, c int) int {
	runs, prev := 1, ds.Cell(0, c)
	for r := 1; r < ds.Rows(); r++ {
		if v := ds.Cell(r, c); v != prev {
			runs++
			prev = v
		}
	}
	return runs
}

func refColumnValues(ds *dataset.Dataset, c int, meta *columnMeta) ([]int64, []bool) {
	vals, nulls := make([]int64, ds.Rows()), make([]bool, ds.Rows())
	for i := range vals {
		v := ds.Cell(i, c)
		if v.IsNull() {
			nulls[i] = true
			continue
		}
		switch meta.kind {
		case dataset.KindInt:
			vals[i] = v.AsInt()
		case dataset.KindFloat:
			vals[i] = int64(math.Float64bits(v.AsFloat()))
		case dataset.KindString:
			id, ok := meta.dictIdx[v.AsString()]
			if !ok {
				id = int64(len(meta.dict))
				meta.dict = append(meta.dict, v.AsString())
				meta.dictIdx[v.AsString()] = id
			}
			vals[i] = id
		}
	}
	return vals, nulls
}

// The typed run count, column extraction and Materialize equal their
// boxed references on columns written in runs of NaN, ±0, nulls (a stale
// payload under some), repeated ints and strings: the same encodings are
// chosen, the same pages written and the same cells read back.
func TestTypedLoadMatchesBoxedReference(t *testing.T) {
	state := uint64(45)
	rnd := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	sch := dataset.MustSchema(
		dataset.Attribute{Name: "F", Kind: dataset.KindFloat},
		dataset.Attribute{Name: "I", Kind: dataset.KindInt},
		dataset.Attribute{Name: "S", Kind: dataset.KindString},
	)
	floats := []float64{math.NaN(), 0, math.Copysign(0, -1), 1.5}
	labels := []string{"", "a", "b"}
	chosen := map[Encoding]int{}
	for trial := 0; trial < 60; trial++ {
		n, maxRun := 1+rnd(700), 1+rnd(12)
		ds := dataset.New(sch)
		row := dataset.Row{dataset.Null, dataset.Null, dataset.Null}
		for i := 0; i < n; i++ {
			for c := range row {
				if i > 0 && rnd(maxRun) != 0 {
					continue // the run goes on
				}
				switch k := rnd(5); {
				case k == 0:
					row[c] = dataset.Null
				case c == 0:
					row[c] = dataset.Float(floats[k-1])
				case c == 1:
					row[c] = dataset.Int(int64(k % 3))
				default:
					row[c] = dataset.String(labels[k%3])
				}
			}
			if err := ds.Append(row); err != nil {
				t.Fatal(err)
			}
			if rnd(40) == 0 {
				if err := ds.SetCell(i, rnd(3), dataset.Null); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := map[string]Encoding{}
		for c := 0; c < sch.Len(); c++ {
			if refRuns(ds, c)*4 <= n {
				want[sch.At(c).Name] = RLE
			} else {
				want[sch.At(c).Name] = Plain
			}
			got := &columnMeta{kind: sch.At(c).Kind, dictIdx: map[string]int64{}}
			ref := &columnMeta{kind: sch.At(c).Kind, dictIdx: map[string]int64{}}
			gv, gn := columnValues(ds, c, got)
			rv, rn := refColumnValues(ds, c, ref)
			if !slices.Equal(gv, rv) || !slices.Equal(gn, rn) || !slices.Equal(got.dict, ref.dict) {
				t.Fatalf("trial %d column %s: typed extraction differs from the boxed one", trial, sch.At(c).Name)
			}
		}
		enc := SuggestEncodings(ds)
		if !maps.Equal(enc, want) {
			t.Fatalf("trial %d: SuggestEncodings = %v, boxed reference %v", trial, enc, want)
		}
		for _, e := range enc {
			chosen[e]++
		}
		_, pool := newPool()
		f, err := Load(pool, ds, Options{Encode: enc})
		if err != nil {
			t.Fatal(err)
		}
		back, err := f.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for c := 0; c < sch.Len(); c++ {
				g, w := back.Cell(i, c), ds.Cell(i, c)
				if g.Kind() != w.Kind() || g.String() != w.String() ||
					w.Kind() == dataset.KindFloat && math.Float64bits(g.AsFloat()) != math.Float64bits(w.AsFloat()) {
					t.Fatalf("trial %d cell (%d,%d) = %v, want %v", trial, i, c, g, w)
				}
			}
		}
	}
	if chosen[RLE] == 0 || chosen[Plain] == 0 {
		t.Fatalf("trials chose %v: both encodings must be exercised", chosen)
	}
}

// BenchmarkNumericColumn measures the bulk row read, which allocates its
// two result slices and nothing per page
// (TestNumericColumnAllocatesOnlyItsResult).
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

// BenchmarkNumericRunColumn measures the run-native read against the
// same column; on the RLE column it touches O(runs) memory.
func BenchmarkNumericRunColumn(b *testing.B) {
	ds := censusLike(b, 20000)
	_, pool := newPool()
	f, err := Load(pool, ds, Options{Encode: map[string]Encoding{"POPULATION": RLE}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var rows int64
		_, _, counts, err := f.NumericRunColumn("POPULATION")
		for _, c := range counts {
			rows += c
		}
		if err != nil || rows != int64(ds.Rows()) {
			b.Fatalf("runs cover %d rows, err %v", rows, err)
		}
	}
}
