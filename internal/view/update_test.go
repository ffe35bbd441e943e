package view

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"statdb/internal/colstore"
	"statdb/internal/dataset"
	"statdb/internal/relalg"
	"statdb/internal/rules"
	"statdb/internal/storage"
	"statdb/internal/summary"
)

// updateFixture is a view with a predicate column G (0..19), a
// high-cardinality float P (stored Plain) and a float R in long runs
// (stored RLE). A few cells of each are missing.
func updateFixture(t testing.TB, n int) *View {
	t.Helper()
	ds := dataset.New(dataset.MustSchema(
		dataset.Attribute{Name: "ID", Kind: dataset.KindInt, Category: true},
		dataset.Attribute{Name: "G", Kind: dataset.KindInt, Category: true},
		dataset.Attribute{Name: "P", Kind: dataset.KindFloat, Summarizable: true},
		dataset.Attribute{Name: "R", Kind: dataset.KindFloat, Summarizable: true},
	))
	g := aggLCG(5)
	for i := 0; i < n; i++ {
		row := dataset.Row{
			dataset.Int(int64(i)),
			dataset.Int(int64(g.next() % 20)),
			dataset.Float(float64(g.next()%2000000)/1000 - 1000),
			dataset.Float(float64(i / (n/12 + 1) * 5)),
		}
		if i%97 == 13 {
			row[2] = dataset.Null
		}
		if i%211 == 7 {
			row[3] = dataset.Null
		}
		if err := ds.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	v, err := New(ds, rules.NewManagementDB(), rules.ViewDef{
		Name: "upd", Analyst: "a", Source: "raw", Ops: []string{"all"},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// storeMatchesData fails unless the attached store reads back, record for
// record, what the data set holds.
func storeMatchesData(t *testing.T, v *View, step string) {
	t.Helper()
	if v.store == nil {
		return
	}
	for r := 0; r < v.data.Rows(); r++ {
		got, err := v.store.readRow(r)
		if err != nil {
			t.Fatalf("%s: store row %d: %v", step, r, err)
		}
		if want := v.data.RowAt(r); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: store row %d = %v, data set holds %v", step, r, got, want)
		}
	}
}

// TestUpdateSequenceMatchesRecompute runs a seeded update → undo → update
// → rollback sequence on every backing; after each step every built-in,
// answered through the view's maintained cache, must equal a from-scratch
// computation over the column, and the store must mirror the data set.
// A row file is written once: the first update detaches it, and a
// re-attach at the end rebuilds it from the rolled-back data set.
// Once an update has been followed by a refill, mode and unique are
// maintained from the retained frequency table: fresh the moment an
// update, undo or rollback returns — on the RLE column too, whose
// run-served fills keep the same states a row read does.
func TestUpdateSequenceMatchesRecompute(t *testing.T) {
	backings := []struct {
		name    string
		backing Backing
		attr    string
		enc     colstore.Encoding
	}{
		{"memory", BackingMemory, "P", colstore.Plain},
		{"row", BackingRow, "P", colstore.Plain},
		{"transposed-plain", BackingTransposed, "P", colstore.Plain},
		{"transposed-rle", BackingTransposed, "R", colstore.RLE},
	}
	for _, b := range backings {
		t.Run(b.name, func(t *testing.T) {
			t.Parallel()
			v := updateFixture(t, 2500)
			if b.backing != BackingMemory {
				attach(t, v, b.backing)
			}
			if b.backing == BackingTransposed {
				if enc, err := v.store.col.ColumnEncoding(b.attr); err != nil || enc != b.enc {
					t.Fatalf("column %s is stored %v (%v), want %v", b.attr, enc, err, b.enc)
				}
			}
			original := updateFixture(t, 2500).Dataset()
			verify := func(step string) {
				t.Helper()
				xs, valid, err := v.Dataset().NumericByName(b.attr)
				if err != nil {
					t.Fatal(err)
				}
				cur := shape{name: b.name, xs: xs, valid: valid}
				ref := summary.NewDB(rules.NewManagementDB())
				for _, fn := range summary.Functions() {
					got, gerr := v.Compute(fn, b.attr)
					want, werr := ref.Scalar(fn, b.attr, cur.source())
					cur.check(t, step, fn, answer{got, gerr}, answer{want, werr}, incrRel)
				}
				storeMatchesData(t, v, step)
			}
			// maintained asserts the delta form: what the Summary Database
			// holds for unique right after a write, before anything re-asks.
			maintained := func(step string) {
				t.Helper()
				if _, fresh := v.Summary().Lookup("unique", b.attr); !fresh {
					t.Errorf("%s: unique went stale right after the write", step)
				}
			}
			g := aggLCG(31)
			group := func() relalg.Predicate {
				return relalg.Cmp{Attr: "G", Op: relalg.Eq, Val: dataset.Int(int64(g.next() % 20))}
			}
			update := func(step string, pred relalg.Predicate, val dataset.Value) {
				t.Helper()
				n, err := v.UpdateWhere(b.attr, pred, val)
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				if n == 0 {
					t.Fatalf("%s: changed no rows", step)
				}
				if v.History().Len() > 1 || step == "update 2" {
					maintained(step)
				}
				verify(step)
			}

			verify("initial") // installs every kept state and window
			update("update 1", group(), dataset.Float(41.5))
			want := b.backing
			if want == BackingRow {
				want = BackingMemory
			}
			if got := v.StoreBacking(); got != want {
				t.Fatalf("after the first update the view is backed by %v, want %v", got, want)
			}
			if err := v.Undo(); err != nil {
				t.Fatal(err)
			}
			maintained("undo 1")
			verify("undo 1")
			update("update 2", group(), dataset.Float(-3))
			mark, _ := v.History().Last()
			update("update 3", group(), dataset.Null)
			// The new value sits inside the quantile windows; the predicate
			// reads the column being written.
			update("update 4", relalg.Cmp{Attr: b.attr, Op: relalg.Gt, Val: dataset.Float(20)}, dataset.Float(20))
			update("update 5", relalg.Or{
				relalg.IsNull{Attr: b.attr},
				relalg.Cmp{Attr: b.attr, Op: relalg.Le, Val: dataset.Float(0.5)},
			}, dataset.Int(7))
			// Every copy of the current mode goes, then every value: to
			// missing — an empty column.
			mode, err := v.Compute("mode", b.attr)
			if err != nil {
				t.Fatal(err)
			}
			update("update 6", relalg.Cmp{Attr: b.attr, Op: relalg.Eq, Val: dataset.Float(mode)}, dataset.Null)
			update("update 7", relalg.All{}, dataset.Null)
			if err := v.RollbackTo(mark.Seq); err != nil {
				t.Fatal(err)
			}
			maintained("rollback to 2")
			if v.History().Len() != 1 {
				t.Fatalf("history holds %d records after rollback to update 2, want 1", v.History().Len())
			}
			verify("rollback to 2")
			if err := v.RollbackTo(0); err != nil {
				t.Fatal(err)
			}
			maintained("rollback to 0")
			verify("rollback to 0")
			for r := 0; r < original.Rows(); r++ {
				if got, want := v.Dataset().RowAt(r), original.RowAt(r); !reflect.DeepEqual(got, want) {
					t.Fatalf("row %d after full rollback = %v, originally %v", r, got, want)
				}
			}
			if b.backing == BackingRow {
				attach(t, v, BackingRow)
				if v.StoreBacking() != BackingRow {
					t.Fatalf("re-attach left the view backed by %v", v.StoreBacking())
				}
				storeMatchesData(t, v, "re-attached row file")
			}
		})
	}
}

// TestHistoryFootprint pins what an update leaves in the history: 4 bytes
// of record index and 8 of before-image a changed float cell, a bit when
// the image has holes — a 2 000-cell update within 26 KiB, measured as
// live heap so slack capacity counts. Every round of updates stays live
// until the view goes, so this is what bounds a long session's memory.
func TestHistoryFootprint(t *testing.T) {
	v := updateFixture(t, 2000)
	x := 0.5
	update := func() {
		t.Helper()
		x++
		if n, err := v.UpdateWhere("P", relalg.All{}, dataset.Float(x)); err != nil || n != 2000 {
			t.Fatalf("update changed %d rows, %v", n, err)
		}
	}
	live := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC() // what the first cycle's finalizers and pool victims let go
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	// The first update's image has the column's holes.
	update()
	rec, _ := v.History().Last()
	if missing := rec.Old.At(13); !missing.IsNull() || rec.Old.At(14).IsNull() {
		t.Errorf("before-image reads %v at a hole and %v beside it", missing, rec.Old.At(14))
	}
	// The next ones are bracketed by two like measurements and averaged,
	// so a one-off release elsewhere in the process does not decide.
	const rounds = 8
	update()
	before := live()
	for i := 0; i < rounds; i++ {
		update()
	}
	grew := (int64(live()) - int64(before)) / rounds
	if grew < 24000 || grew > 26<<10 {
		t.Errorf("a 2000-cell update left %d B live (%.1f B a cell), want 12 B a cell and at most %d in all", grew, float64(grew)/2000, 26<<10)
	}
	runtime.KeepAlive(v)
}

// tripDevice arms its fault device at the tripAt-th page read.
type tripDevice struct {
	*storage.FaultDevice
	reads, tripAt int
}

func (d *tripDevice) ReadPage(id storage.PageID, buf []byte) error {
	d.reads++
	if d.reads == d.tripAt {
		d.FaultDevice.SetDisabled(false)
	}
	return d.FaultDevice.ReadPage(id, buf)
}

// A write-through that fails on its k-th page must leave no trace: the
// statement is not recorded, and data set, stored image and every cached
// summary are what they were before it. The device fails one fetch (all
// four retries of it) and then heals, so the revert itself can run. Only
// a transposed store is written through; a row file is detached instead.
func TestUpdateRevertsOnWriteThroughFault(t *testing.T) {
	for _, k := range []int{1, 3, 6} {
		t.Run(fmt.Sprintf("transposed/page-%d", k), func(t *testing.T) {
			v := updateFixture(t, 3000)
			fd := storage.NewFaultDevice(storage.NewMemDevice(storage.DefaultDiskCost()),
				storage.FaultConfig{Seed: 1, ReadTransientRate: 1, MaxFaults: 4})
			fd.SetDisabled(true)
			dev := &tripDevice{FaultDevice: fd}
			// Four frames: the 3000-row column spans seven Plain pages,
			// so every page of the update is a miss.
			if err := v.AttachStoreDevice(BackingTransposed, dev, 4); err != nil {
				t.Fatal(err)
			}
			for _, fn := range summary.Functions() {
				if _, err := v.Compute(fn, "P"); err != nil {
					t.Fatal(err)
				}
			}
			data := updateFixture(t, 3000).Dataset()
			cache := v.Summary().Dump()
			counters := v.Summary().Counters()

			dev.tripAt = dev.reads + k
			n, err := v.UpdateWhere("P", relalg.All{}, dataset.Float(1))
			if err == nil {
				t.Fatalf("update changed %d rows through a failing device", n)
			}
			if fd.Faults().ReadTransient != 4 {
				t.Fatalf("injected %d read faults, want one exhausted fetch (4)", fd.Faults().ReadTransient)
			}
			if v.History().Len() != 0 {
				t.Errorf("failed update left %d history records", v.History().Len())
			}
			for r := 0; r < data.Rows(); r++ {
				if got, want := v.Dataset().RowAt(r), data.RowAt(r); !reflect.DeepEqual(got, want) {
					t.Fatalf("data set row %d = %v after the failed update, was %v", r, got, want)
				}
			}
			storeMatchesData(t, v, "after failed update")
			if got := v.Summary().Dump(); !reflect.DeepEqual(got, cache) {
				t.Errorf("cached summaries changed:\n got %v\nwant %v", got, cache)
			}
			if got := v.Summary().Counters(); got != counters {
				t.Errorf("summary counters moved: %+v, were %+v", got, counters)
			}
		})
	}
}

func BenchmarkUpdateWhere(b *testing.B) {
	v := updateFixture(b, 200_000)
	if err := v.AttachStore(BackingTransposed, storage.DefaultDiskCost(), 4096); err != nil {
		b.Fatal(err) // the whole file fits the pool
	}
	for _, fn := range summary.Functions() {
		if _, err := v.Compute(fn, "P"); err != nil {
			b.Fatal(err)
		}
	}
	// G = k selects one row in twenty; with ID < 40 000 on top, 1 %.
	pred := func(i int) relalg.Predicate {
		return relalg.And{
			relalg.Cmp{Attr: "G", Op: relalg.Eq, Val: dataset.Int(int64(i % 20))},
			relalg.Cmp{Attr: "ID", Op: relalg.Lt, Val: dataset.Int(40_000)},
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.UpdateWhere("P", pred(i), dataset.Float(float64(i)+0.25)); err != nil {
			b.Fatal(err)
		}
	}
}
