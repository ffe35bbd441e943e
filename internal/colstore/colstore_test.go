package colstore

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"statdb/internal/dataset"
	"statdb/internal/storage"
)

func newPool() (*storage.MemDevice, *storage.BufferPool) {
	dev := storage.NewMemDevice(storage.DefaultDiskCost())
	return dev, storage.NewBufferPool(dev, 16)
}

func censusLike(t testing.TB, n int) *dataset.Dataset {
	sch := dataset.MustSchema(
		dataset.Attribute{Name: "SEX", Kind: dataset.KindString, Category: true},
		dataset.Attribute{Name: "AGE_GROUP", Kind: dataset.KindInt, Category: true},
		dataset.Attribute{Name: "POPULATION", Kind: dataset.KindInt},
		dataset.Attribute{Name: "AVE_SALARY", Kind: dataset.KindFloat},
	)
	ds := dataset.New(sch)
	sexes := []string{"M", "F"}
	for i := 0; i < n; i++ {
		if err := ds.Append(dataset.Row{
			dataset.String(sexes[(i/(n/2+1))%2]), // long runs of M then F
			dataset.Int(int64(i % 4)),
			dataset.Int(int64(1000 + i)),
			dataset.Float(float64(20000 + i%97)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func TestRunCodecRoundTrip(t *testing.T) {
	runs := []run{
		{null: false, value: 42, count: 1},
		{null: false, value: -9999999, count: 100000},
		{null: true, count: 7},
	}
	var buf []byte
	for _, r := range runs {
		buf = r.encode(buf)
	}
	for _, want := range runs {
		var got run
		var err error
		got, buf, err = decodeRun(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("got %+v, want %+v", got, want)
		}
	}
	if len(buf) != 0 {
		t.Errorf("%d bytes left", len(buf))
	}
}

func TestRunCodecErrors(t *testing.T) {
	if _, _, err := decodeRun([]byte{}); err == nil {
		t.Error("empty buffer decoded")
	}
	if _, _, err := decodeRun([]byte{9, 1}); err == nil {
		t.Error("bad flag decoded")
	}
	if _, _, err := decodeRun([]byte{0, 0}); err == nil {
		t.Error("zero-count run decoded")
	}
}

func TestAppendRunsCoalesces(t *testing.T) {
	var rs []run
	for _, v := range []int64{1, 1, 1, 2, 2, 1} {
		rs = appendRuns(rs, v, false)
	}
	rs = appendRuns(rs, 0, true)
	rs = appendRuns(rs, 5, true) // null runs coalesce regardless of value
	want := []run{{false, 1, 3}, {false, 2, 2}, {false, 1, 1}, {true, 0, 2}}
	if len(rs) != len(want) {
		t.Fatalf("runs = %+v", rs)
	}
	for i := range want {
		if rs[i].null != want[i].null || rs[i].count != want[i].count || (!rs[i].null && rs[i].value != want[i].value) {
			t.Errorf("run %d = %+v, want %+v", i, rs[i], want[i])
		}
	}
}

func roundTrip(t *testing.T, enc Encoding, n int) {
	t.Helper()
	ds := censusLike(t, n)
	_, pool := newPool()
	opts := Options{Encode: map[string]Encoding{}}
	for _, name := range ds.Schema().Names() {
		opts.Encode[name] = enc
	}
	f, err := Load(pool, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != n {
		t.Fatalf("rows = %d, want %d", got.Rows(), n)
	}
	for i := 0; i < n; i++ {
		for c := 0; c < ds.Schema().Len(); c++ {
			if !got.Cell(i, c).Equal(ds.Cell(i, c)) {
				t.Fatalf("%s: cell (%d,%d): got %v want %v", enc, i, c, got.Cell(i, c), ds.Cell(i, c))
			}
		}
	}
}

func TestPlainRoundTrip(t *testing.T) { roundTrip(t, Plain, 1200) } // > 2 pages
func TestRLERoundTrip(t *testing.T)   { roundTrip(t, RLE, 1200) }
func TestTinyRoundTrip(t *testing.T)  { roundTrip(t, Plain, 1); roundTrip(t, RLE, 1) }

func TestEmptyDataset(t *testing.T) {
	sch := dataset.MustSchema(dataset.Attribute{Name: "X", Kind: dataset.KindInt})
	_, pool := newPool()
	f, err := Load(pool, dataset.New(sch), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Materialize()
	if err != nil || got.Rows() != 0 {
		t.Fatalf("empty: rows=%d err=%v", got.Rows(), err)
	}
}

func TestNullsRoundTrip(t *testing.T) {
	sch := dataset.MustSchema(dataset.Attribute{Name: "X", Kind: dataset.KindFloat})
	ds := dataset.New(sch)
	for i := 0; i < 600; i++ {
		v := dataset.Value(dataset.Float(float64(i)))
		if i%5 == 0 {
			v = dataset.Null
		}
		if err := ds.Append(dataset.Row{v}); err != nil {
			t.Fatal(err)
		}
	}
	for _, enc := range []Encoding{Plain, RLE} {
		_, pool := newPool()
		f, err := Load(pool, ds, Options{Encode: map[string]Encoding{"X": enc}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 600; i++ {
			if !got.Cell(i, 0).Equal(ds.Cell(i, 0)) {
				t.Fatalf("%v: cell %d: %v != %v", enc, i, got.Cell(i, 0), ds.Cell(i, 0))
			}
		}
	}
}

func TestScanColumn(t *testing.T) {
	ds := censusLike(t, 1000)
	_, pool := newPool()
	f, err := Load(pool, ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	err = f.ScanColumn("POPULATION", func(row int, v dataset.Value) bool {
		sum += v.AsInt()
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for i := 0; i < 1000; i++ {
		want += int64(1000 + i)
	}
	if sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
	// Early stop.
	count := 0
	if err := f.ScanColumn("POPULATION", func(int, dataset.Value) bool { count++; return count < 5 }); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("early stop count = %d", count)
	}
	if err := f.ScanColumn("NOPE", func(int, dataset.Value) bool { return true }); err == nil {
		t.Error("scan of missing column accepted")
	}
}

func TestNumericColumn(t *testing.T) {
	ds := censusLike(t, 100)
	_, pool := newPool()
	f, err := Load(pool, ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	vals, valid, err := f.NumericColumn("AVE_SALARY")
	if err != nil || len(vals) != 100 {
		t.Fatalf("NumericColumn: %d vals, %v", len(vals), err)
	}
	if !valid[0] || vals[0] != 20000 {
		t.Errorf("vals[0] = %v valid=%v", vals[0], valid[0])
	}
	if _, _, err := f.NumericColumn("SEX"); err == nil {
		t.Error("numeric read of string column accepted")
	}
}

func TestRowAt(t *testing.T) {
	ds := censusLike(t, 1000)
	for _, enc := range []Encoding{Plain, RLE} {
		_, pool := newPool()
		opts := Options{Encode: map[string]Encoding{"SEX": enc, "AGE_GROUP": enc}}
		f, err := Load(pool, ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{0, 1, 479, 480, 999} {
			row, err := f.RowAt(i)
			if err != nil {
				t.Fatalf("RowAt(%d): %v", i, err)
			}
			want := ds.RowAt(i)
			for c := range want {
				if !row[c].Equal(want[c]) {
					t.Errorf("enc=%v row %d col %d: %v != %v", enc, i, c, row[c], want[c])
				}
			}
		}
		if _, err := f.RowAt(-1); err == nil {
			t.Error("negative row accepted")
		}
		if _, err := f.RowAt(1000); err == nil {
			t.Error("out-of-range row accepted")
		}
	}
}

func TestUpdateValuePlain(t *testing.T) {
	ds := censusLike(t, 600)
	_, pool := newPool()
	f, err := Load(pool, ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.UpdateValue("POPULATION", 500, dataset.Int(-1)); err != nil {
		t.Fatal(err)
	}
	row, err := f.RowAt(500)
	if err != nil || !row[2].Equal(dataset.Int(-1)) {
		t.Fatalf("after update: %v, %v", row, err)
	}
	// Null update.
	if err := f.UpdateValue("POPULATION", 0, dataset.Null); err != nil {
		t.Fatal(err)
	}
	row, _ = f.RowAt(0)
	if !row[2].IsNull() {
		t.Errorf("null update lost: %v", row[2])
	}
	// Type error.
	if err := f.UpdateValue("POPULATION", 0, dataset.String("x")); err == nil {
		t.Error("type-mismatched update accepted")
	}
	if err := f.UpdateValue("POPULATION", 600, dataset.Int(0)); err == nil {
		t.Error("out-of-range update accepted")
	}
}

func TestUpdateValueRLERewritesColumn(t *testing.T) {
	ds := censusLike(t, 600)
	_, pool := newPool()
	f, err := Load(pool, ds, Options{Encode: map[string]Encoding{"SEX": RLE}})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.UpdateValue("SEX", 300, dataset.String("X")); err != nil {
		t.Fatal(err)
	}
	row, err := f.RowAt(300)
	if err != nil || !row[0].Equal(dataset.String("X")) {
		t.Fatalf("after RLE update: %v, %v", row, err)
	}
	// Neighbours untouched.
	for _, i := range []int{299, 301} {
		row, _ := f.RowAt(i)
		if !row[0].Equal(ds.Cell(i, 0)) {
			t.Errorf("row %d disturbed: %v", i, row[0])
		}
	}
}

func TestRLECompressesLowCardinalityColumns(t *testing.T) {
	ds := censusLike(t, 5000)
	_, poolP := newPool()
	fp, err := Load(poolP, ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, poolR := newPool()
	fr, err := Load(poolR, ds, Options{Encode: map[string]Encoding{"SEX": RLE}})
	if err != nil {
		t.Fatal(err)
	}
	plainPages, _ := fp.ColumnPages("SEX")
	rlePages, _ := fr.ColumnPages("SEX")
	if rlePages >= plainPages {
		t.Errorf("RLE pages %d >= plain pages %d for long-run column", rlePages, plainPages)
	}
	if rlePages != 1 {
		t.Errorf("SEX column has 2 runs; want 1 RLE page, got %d", rlePages)
	}
}

func TestColumnMajorCompressionBeatsRowMajor(t *testing.T) {
	// Category attributes form long runs down columns but alternate
	// across a row, so column-major RLE must win (Section 2.6).
	ds := censusLike(t, 2000)
	colSize := EncodedSizeColumnMajor(ds)
	rowSize := EncodedSizeRowMajor(ds)
	if colSize >= rowSize {
		t.Errorf("column-major %d >= row-major %d", colSize, rowSize)
	}
	if RunsColumnMajor(ds) >= RunsRowMajor(ds) {
		t.Errorf("column-major runs %d >= row-major runs %d", RunsColumnMajor(ds), RunsRowMajor(ds))
	}
}

// Property: Plain and RLE loads materialize identically for arbitrary
// int sequences (including runs and negatives).
func TestEncodingsAgreeProperty(t *testing.T) {
	f := func(vals []int16, nullEvery uint8) bool {
		sch := dataset.MustSchema(dataset.Attribute{Name: "X", Kind: dataset.KindInt})
		ds := dataset.New(sch)
		for i, v := range vals {
			cell := dataset.Value(dataset.Int(int64(v) / 8)) // induce runs
			if nullEvery > 0 && i%(int(nullEvery)+1) == 0 {
				cell = dataset.Null
			}
			if err := ds.Append(dataset.Row{cell}); err != nil {
				return false
			}
		}
		_, poolP := newPool()
		fp, err := Load(poolP, ds, Options{})
		if err != nil {
			return false
		}
		_, poolR := newPool()
		fr, err := Load(poolR, ds, Options{Encode: map[string]Encoding{"X": RLE}})
		if err != nil {
			return false
		}
		a, err := fp.Materialize()
		if err != nil {
			return false
		}
		b, err := fr.Materialize()
		if err != nil {
			return false
		}
		if a.Rows() != b.Rows() {
			return false
		}
		for i := 0; i < a.Rows(); i++ {
			if !a.Cell(i, 0).Equal(b.Cell(i, 0)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestColumnScanCheaperThanRowScanOnDevice(t *testing.T) {
	// The I/O argument of Section 2.6: scanning one of four columns
	// through the transposed file reads ~1/4 of the pages a full-row
	// layout would.
	ds := censusLike(t, 4000)
	dev, pool := newPool()
	f, err := Load(pool, ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dev.ResetStats()
	if err := f.ScanColumn("POPULATION", func(int, dataset.Value) bool { return true }); err != nil {
		t.Fatal(err)
	}
	colReads := dev.Stats().Reads
	total := int64(f.TotalPages())
	if colReads*3 >= total {
		t.Errorf("column scan read %d of %d pages; want ~1/4", colReads, total)
	}
	fmt.Printf("column scan: %d of %d pages\n", colReads, total)
}

// encodePlainPageBytewise is the codec's original byte-at-a-time loop,
// kept as the oracle for the page image.
func encodePlainPageBytewise(buf []byte, vals []int64, nulls []bool) {
	for i := range buf {
		buf[i] = 0
	}
	buf[0] = byte(len(vals))
	buf[1] = byte(len(vals) >> 8)
	bitmap := buf[2 : 2+plainCap/8]
	data := buf[2+plainCap/8:]
	for i, v := range vals {
		if !nulls[i] {
			bitmap[i/8] |= 1 << (i % 8)
		}
		for b := 0; b < 8; b++ {
			data[i*8+b] = byte(uint64(v) >> (8 * b))
		}
	}
}

func TestPlainPageImageUnchanged(t *testing.T) {
	g := uint64(99)
	next := func() uint64 {
		g = g*6364136223846793005 + 1442695040888963407
		return g
	}
	for _, n := range []int{0, 1, 7, 8, 9, plainCap - 1, plainCap} {
		vals := make([]int64, n)
		nulls := make([]bool, n)
		for i := range vals {
			vals[i] = int64(next())
			nulls[i] = next()%5 == 0
		}
		want := make([]byte, storage.PagePayloadSize)
		got := make([]byte, storage.PagePayloadSize)
		for i := range got {
			got[i] = 0xAA // encode must clear what it does not write
		}
		encodePlainPageBytewise(want, vals, nulls)
		encodePlainPage(got, vals, nulls)
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: page image differs from the byte-loop encoding", n)
		}
		dv, dn := decodePlainPageInto(got, nil, nil)
		if len(dv) != n || len(dn) != n {
			t.Fatalf("n=%d: decoded %d values, %d nulls", n, len(dv), len(dn))
		}
		for i := range vals {
			if dv[i] != vals[i] || dn[i] != nulls[i] {
				t.Fatalf("n=%d: cell %d decodes to (%d,%v), want (%d,%v)", n, i, dv[i], dn[i], vals[i], nulls[i])
			}
		}
	}
}

// A batch update leaves exactly the file a cell-at-a-time update leaves:
// same values back, and for Plain columns the same page images.
func TestUpdateRowsMatchesUpdateValue(t *testing.T) {
	for _, enc := range []Encoding{Plain, RLE} {
		ds := censusLike(t, 1500)
		opts := Options{Encode: map[string]Encoding{"AGE_GROUP": enc, "SEX": enc, "AVE_SALARY": enc}}
		devA, poolA := newPool()
		devB, poolB := newPool()
		a, err := Load(poolA, ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Load(poolB, ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		rows := []int32{0, 1, 479, 480, 481, 959, 1200, 1499} // both sides of two page boundaries
		updates := map[string]func(k int) dataset.Value{
			"AGE_GROUP":  func(int) dataset.Value { return dataset.Int(9) },
			"SEX":        func(int) dataset.Value { return dataset.Null },
			"AVE_SALARY": func(k int) dataset.Value { return dataset.Float(float64(k) + 0.5) },
		}
		for name, at := range updates {
			if err := a.UpdateRows(name, rows, at); err != nil {
				t.Fatalf("%s %s: UpdateRows: %v", enc, name, err)
			}
			for k, r := range rows {
				if err := b.UpdateValue(name, int(r), at(k)); err != nil {
					t.Fatalf("%s %s: UpdateValue: %v", enc, name, err)
				}
			}
		}
		ma, err := a.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		mb, err := b.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < ds.Rows(); r++ {
			for c := 0; c < ds.Schema().Len(); c++ {
				if !ma.Cell(r, c).Equal(mb.Cell(r, c)) {
					t.Fatalf("%s: cell (%d,%d): batch %v, cell-at-a-time %v", enc, r, c, ma.Cell(r, c), mb.Cell(r, c))
				}
			}
		}
		if err := poolA.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if err := poolB.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if devA.NumPages() != devB.NumPages() {
			t.Fatalf("%s: batch file has %d pages, cell-at-a-time %d", enc, devA.NumPages(), devB.NumPages())
		}
		pa, pb := make([]byte, storage.PageSize), make([]byte, storage.PageSize)
		for id := 0; id < devA.NumPages(); id++ {
			if err := devA.ReadPage(storage.PageID(id), pa); err != nil {
				t.Fatal(err)
			}
			if err := devB.ReadPage(storage.PageID(id), pb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pa, pb) {
				t.Fatalf("%s: page %d image differs between batch and cell-at-a-time", enc, id)
			}
		}
	}
}

func TestUpdateRowsRejectsBadBatches(t *testing.T) {
	ds := censusLike(t, 600)
	_, pool := newPool()
	f, err := Load(pool, ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	one := func(int) dataset.Value { return dataset.Int(1) }
	if err := f.UpdateRows("POPULATION", []int32{5, 5}, one); err == nil {
		t.Error("repeated row accepted")
	}
	if err := f.UpdateRows("POPULATION", []int32{7, 3}, one); err == nil {
		t.Error("descending rows accepted")
	}
	if err := f.UpdateRows("POPULATION", []int32{3, 600}, one); err == nil {
		t.Error("out-of-range row accepted")
	}
	if err := f.UpdateRows("NOPE", []int32{3}, one); err == nil {
		t.Error("unknown column accepted")
	}
	// A value the column cannot hold fails before any page is touched.
	mixed := func(k int) dataset.Value {
		if k == 1 {
			return dataset.String("x")
		}
		return dataset.Int(-7)
	}
	if err := f.UpdateRows("POPULATION", []int32{3, 4}, mixed); err == nil {
		t.Error("type-mismatched batch accepted")
	}
	row, err := f.RowAt(3)
	if err != nil || !row[2].Equal(ds.Cell(3, 2)) {
		t.Errorf("rejected batch changed row 3: %v, %v", row, err)
	}
}

// RLE rewrites used to abandon the column's pages and allocate a fresh
// run each time: the device grew by the column's size per updated cell
// while TotalPages went on reporting the live run only.
func TestRLERewritesReuseTheirPages(t *testing.T) {
	n := 3000
	vals := make([]dataset.Value, n)
	for i := range vals {
		vals[i] = dataset.Int(int64(i % 700)) // ~2 bytes a run: several pages
	}
	ds := intOnly(t, vals)
	dev, pool := newPool()
	f, err := Load(pool, ds, Options{Encode: map[string]Encoding{"X": RLE}})
	if err != nil {
		t.Fatal(err)
	}
	start := dev.NumPages()
	if start < 2 {
		t.Fatalf("fixture column occupies %d pages, want several", start)
	}
	for i := 0; i < 50; i++ {
		if err := f.UpdateValue("X", (i*61)%n, dataset.Int(int64(100000+i))); err != nil {
			t.Fatal(err)
		}
		want := dataset.Int(int64(100000 + i))
		if row, err := f.RowAt((i * 61) % n); err != nil || !row[0].Equal(want) {
			t.Fatalf("rewrite %d: row reads %v, %v", i, row, err)
		}
	}
	if got := dev.NumPages(); got > start+1 {
		t.Errorf("50 single-cell rewrites grew the device from %d to %d pages", start, got)
	}
	if got, held := dev.NumPages(), len(f.PageIDs()); got != held {
		t.Errorf("device holds %d pages, the file accounts for %d", got, held)
	}
	// A denser rewrite keeps its surplus pages for the next one.
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	if err := f.UpdateRows("X", all, func(int) dataset.Value { return dataset.Int(1) }); err != nil {
		t.Fatal(err)
	}
	if pages, _ := f.ColumnPages("X"); pages != 1 {
		t.Errorf("constant column occupies %d live pages, want 1", pages)
	}
	if err := f.UpdateRows("X", all, func(k int) dataset.Value { return vals[k] }); err != nil {
		t.Fatal(err)
	}
	if got := dev.NumPages(); got > start+1 {
		t.Errorf("shrink-then-grow rewrites grew the device from %d to %d pages", start, got)
	}
	m, err := f.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if !m.Cell(i, 0).Equal(vals[i]) {
			t.Fatalf("row %d reads %v after the rewrites, want %v", i, m.Cell(i, 0), vals[i])
		}
	}
}
