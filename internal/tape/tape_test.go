package tape

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"testing"

	"statdb/internal/dataset"
	"statdb/internal/storage"
)

func makeDS(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	sch := dataset.MustSchema(
		dataset.Attribute{Name: "ID", Kind: dataset.KindInt, Category: true},
		dataset.Attribute{Name: "NAME", Kind: dataset.KindString},
		dataset.Attribute{Name: "X", Kind: dataset.KindFloat},
	)
	ds := dataset.New(sch)
	for i := 0; i < n; i++ {
		if err := ds.Append(dataset.Row{
			dataset.Int(int64(i)), dataset.String(fmt.Sprintf("row-%d", i)), dataset.Float(float64(i) * 1.5),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func TestWriteReadRoundTrip(t *testing.T) {
	a := NewArchive(DefaultCost())
	ds := makeDS(t, 200) // spans multiple blocks
	if err := a.Write("census", ds); err != nil {
		t.Fatal(err)
	}
	got, err := a.Materialize("census")
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 200 {
		t.Fatalf("rows = %d", got.Rows())
	}
	for i := 0; i < 200; i++ {
		for c := 0; c < 3; c++ {
			if got.Cell(i, c) != ds.Cell(i, c) {
				t.Fatalf("cell (%d,%d) differs", i, c)
			}
		}
	}
}

func TestDuplicateAndMissingFiles(t *testing.T) {
	a := NewArchive(DefaultCost())
	ds := makeDS(t, 10)
	if err := a.Write("f", ds); err != nil {
		t.Fatal(err)
	}
	if err := a.Write("f", ds); err == nil {
		t.Error("duplicate write accepted")
	}
	if err := a.Write("", ds); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := a.Materialize("nope"); err == nil {
		t.Error("missing file materialized")
	}
	if _, err := a.Schema("nope"); err == nil {
		t.Error("missing file schema returned")
	}
	if err := a.Read("nope", func(dataset.Row) bool { return true }); err == nil {
		t.Error("missing file read")
	}
}

func TestMultipleFilesAndMetadata(t *testing.T) {
	a := NewArchive(DefaultCost())
	if err := a.Write("a", makeDS(t, 65)); err != nil { // 2 blocks
		t.Fatal(err)
	}
	if err := a.Write("b", makeDS(t, 5)); err != nil {
		t.Fatal(err)
	}
	files := a.Files()
	if len(files) != 2 || files[0] != "a" || files[1] != "b" {
		t.Fatalf("Files = %v", files)
	}
	if n, _ := a.Rows("a"); n != 65 {
		t.Errorf("Rows(a) = %d", n)
	}
	sch, err := a.Schema("b")
	if err != nil || sch.Len() != 3 {
		t.Errorf("Schema(b): %v, %v", sch, err)
	}
	// Both files read back intact.
	gb, err := a.Materialize("b")
	if err != nil || gb.Rows() != 5 {
		t.Fatalf("Materialize(b): rows=%v err=%v", gb.Rows(), err)
	}
	ga, err := a.Materialize("a")
	if err != nil || ga.Rows() != 65 {
		t.Fatalf("Materialize(a): rows=%v err=%v", ga.Rows(), err)
	}
}

func TestSequentialCostModel(t *testing.T) {
	cost := CostModel{RewindCost: 1000, SkipCost: 1, TransferCost: 2}
	a := NewArchive(cost)
	if err := a.Write("first", makeDS(t, BlockRows*4)); err != nil { // blocks 0-3
		t.Fatal(err)
	}
	if err := a.Write("second", makeDS(t, BlockRows*2)); err != nil { // blocks 4-5
		t.Fatal(err)
	}
	a.ResetStats()

	// Head is at end (block 6). Reading "second" requires a rewind then
	// 4 skips then 2 transfers.
	if err := a.Read("second", func(dataset.Row) bool { return true }); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Rewinds != 1 || st.Skips != 4 || st.Transfers != 2 {
		t.Fatalf("read second: %+v", st)
	}
	if want := int64(1000 + 4*1 + 2*2); st.Ticks != want {
		t.Errorf("ticks = %d, want %d", st.Ticks, want)
	}

	// Head is now at block 6 again; re-reading "second" rewinds again —
	// repeated derivation from tape never gets cheaper, which is the
	// paper's case for concrete views.
	before := st.Ticks
	if err := a.Read("second", func(dataset.Row) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if a.Stats().Ticks-before != before {
		t.Errorf("second read cost %d, first cost %d — should be identical", a.Stats().Ticks-before, before)
	}
}

func TestReadForwardNoRewind(t *testing.T) {
	a := NewArchive(DefaultCost())
	if err := a.Write("a", makeDS(t, BlockRows)); err != nil {
		t.Fatal(err)
	}
	if err := a.Write("b", makeDS(t, BlockRows)); err != nil {
		t.Fatal(err)
	}
	a.ResetStats()
	// Read a (rewind needed: head at end), then b (head just past a: pure
	// forward motion, no rewind).
	if err := a.Read("a", func(dataset.Row) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if err := a.Read("b", func(dataset.Row) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().Rewinds; got != 1 {
		t.Errorf("rewinds = %d, want 1 (forward read must not rewind)", got)
	}
}

func TestEarlyStopSavesTransfers(t *testing.T) {
	a := NewArchive(DefaultCost())
	if err := a.Write("big", makeDS(t, BlockRows*10)); err != nil {
		t.Fatal(err)
	}
	a.ResetStats()
	n := 0
	if err := a.Read("big", func(dataset.Row) bool { n++; return n < 3 }); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Transfers != 1 {
		t.Errorf("transfers = %d, want 1 (early stop)", st.Transfers)
	}
}

func TestEmptyDataset(t *testing.T) {
	a := NewArchive(DefaultCost())
	sch := dataset.MustSchema(dataset.Attribute{Name: "X", Kind: dataset.KindInt})
	if err := a.Write("empty", dataset.New(sch)); err != nil {
		t.Fatal(err)
	}
	got, err := a.Materialize("empty")
	if err != nil || got.Rows() != 0 {
		t.Fatalf("empty: rows=%d err=%v", got.Rows(), err)
	}
}

// Write encodes from the typed columns the very bytes EncodeRow writes
// for RowAt, block for block: negative and large ints, NaN, ±0, ±Inf and
// subnormal floats, empty and multi-byte strings, nulls (a stale payload
// under one included) and a partial last block.
func TestWriteBlocksMatchEncodeRow(t *testing.T) {
	ds := dataset.New(dataset.MustSchema(
		dataset.Attribute{Name: "I", Kind: dataset.KindInt},
		dataset.Attribute{Name: "F", Kind: dataset.KindFloat},
		dataset.Attribute{Name: "S", Kind: dataset.KindString},
	))
	ints := []int64{0, -1, 1 << 40, math.MinInt64, math.MaxInt64}
	floats := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(-1), 5e-324, 1.5}
	strs := []string{"", "x", "überall", string(make([]byte, 300))}
	n := 3*BlockRows + 5
	for i := 0; i < n; i++ {
		row := dataset.Row{dataset.Int(ints[i%len(ints)]), dataset.Float(floats[i%len(floats)]), dataset.String(strs[i%len(strs)])}
		if i%7 == 3 {
			row[i%3] = dataset.Null
		}
		if err := ds.Append(row); err != nil {
			t.Fatal(err)
		}
		if i%11 == 5 {
			if err := ds.SetCell(i, (i+1)%3, dataset.Null); err != nil {
				t.Fatal(err)
			}
		}
	}
	a := NewArchive(DefaultCost())
	if err := a.Write("f", ds); err != nil {
		t.Fatal(err)
	}
	blocks := a.byName["f"].blocks
	if len(blocks) != 4 {
		t.Fatalf("%d blocks, want 4", len(blocks))
	}
	for b, blk := range blocks {
		var want []byte
		for i := b * BlockRows; i < min((b+1)*BlockRows, n); i++ {
			want = storage.EncodeRow(want, ds.RowAt(i))
		}
		if !bytes.Equal(blk, want) {
			t.Fatalf("block %d differs from EncodeRow(RowAt(i))", b)
		}
	}
}

// A block that decodes but that the schema rejects, and a block with
// bytes after its last record, both fail Materialize as corruption.
func TestMaterializeReportsCorruptBlocks(t *testing.T) {
	for _, c := range []struct {
		detail string
		damage func(blk []byte) []byte
	}{
		{"archived row rejected by schema", func(blk []byte) []byte {
			// A string where ID, an int, should be.
			_, rest, err := storage.DecodeRowPrefix(nil, blk, 3)
			if err != nil {
				t.Fatal(err)
			}
			bad := storage.EncodeRow(nil, dataset.Row{dataset.String("x"), dataset.String("y"), dataset.Float(1)})
			return append(bad, rest...)
		}},
		{"tape block decode", func(blk []byte) []byte { return append(blk, 0) }},
	} {
		a := NewArchive(DefaultCost())
		if err := a.Write("f", makeDS(t, 2*BlockRows)); err != nil {
			t.Fatal(err)
		}
		blocks := a.byName["f"].blocks
		blocks[1] = c.damage(blocks[1])
		_, err := a.Materialize("f")
		var ce *storage.CorruptError
		if !errors.As(err, &ce) || ce.Detail != c.detail {
			t.Errorf("damaged block: %v, want a CorruptError %q", err, c.detail)
		}
	}
}

// Materialize allocates per column, not per row: the same exact count
// for a numeric file of 10 and of 100 blocks. Collection is off while
// counting, because a GC cycle that the column allocations start adds a
// runtime allocation of its own.
func TestMaterializeAllocations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, n := range []int{10 * BlockRows, 100 * BlockRows} {
		ds := dataset.New(dataset.MustSchema(
			dataset.Attribute{Name: "ID", Kind: dataset.KindInt},
			dataset.Attribute{Name: "X", Kind: dataset.KindFloat},
			dataset.Attribute{Name: "Y", Kind: dataset.KindFloat},
			dataset.Attribute{Name: "G", Kind: dataset.KindInt},
			dataset.Attribute{Name: "Z", Kind: dataset.KindFloat},
		))
		for i := 0; i < n; i++ {
			row := dataset.Row{dataset.Int(int64(i)), dataset.Float(float64(i) / 4), dataset.Float(-float64(i)), dataset.Int(int64(i % 9)), dataset.Null}
			if err := ds.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		a := NewArchive(DefaultCost())
		if err := a.Write("f", ds); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := a.Materialize("f"); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 18 {
			t.Errorf("Materialize of %d rows: %v allocations, want 18", n, allocs)
		}
	}
}
