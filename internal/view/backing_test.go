package view

import (
	"errors"
	"testing"

	"statdb/internal/dataset"
	"statdb/internal/obs"
	"statdb/internal/relalg"
	"statdb/internal/rules"
	"statdb/internal/storage"
)

func attach(t *testing.T, v *View, b Backing) {
	t.Helper()
	if err := v.AttachStore(b, storage.DefaultDiskCost(), 4); err != nil {
		t.Fatal(err)
	}
}

// rowAt reads record i through v, failing the test if the read fails.
func rowAt(t *testing.T, v *View, i int) dataset.Row {
	t.Helper()
	row, err := v.RowAt(i)
	if err != nil {
		t.Fatal(err)
	}
	return row
}

func TestAttachStoreServesReads(t *testing.T) {
	for _, b := range []Backing{BackingRow, BackingTransposed} {
		v := newView(t, 3000, Options{})
		want, _, err := v.Column("SALARY") // memory truth before attach
		if err != nil {
			t.Fatal(err)
		}
		attach(t, v, b)
		if v.StoreBacking() != b {
			t.Fatalf("backing = %v", v.StoreBacking())
		}
		got, valid, err := v.Column("SALARY")
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d values", b, len(got))
		}
		for i := range want {
			if !valid[i] || got[i] != want[i] {
				t.Fatalf("%v: value %d = %g, want %g", b, i, got[i], want[i])
			}
		}
		// The read was charged to the device.
		st, err := v.StoreStats()
		if err != nil || st.Reads == 0 {
			t.Errorf("%v: store stats = %+v, %v", b, st, err)
		}
		// Row reads too.
		row := rowAt(t, v, 123)
		if row[0] != dataset.Int(123) {
			t.Errorf("%v: RowAt = %v", b, row)
		}
	}
}

// An update writes through to a transposed store and detaches a row
// file; either way reads see it, and the undo too.
func TestAttachStoreWriteThrough(t *testing.T) {
	for _, b := range []Backing{BackingRow, BackingTransposed} {
		v := newView(t, 500, Options{})
		attach(t, v, b)
		if _, err := v.Compute("mean", "SALARY"); err != nil {
			t.Fatal(err)
		}
		n, err := v.UpdateWhere("SALARY",
			relalg.Cmp{Attr: "ID", Op: relalg.Lt, Val: dataset.Int(50)},
			dataset.Float(12345))
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		if n != 50 {
			t.Fatalf("%v: updated %d", b, n)
		}
		want := b
		if b == BackingRow {
			want = BackingMemory
		}
		if got := v.StoreBacking(); got != want {
			t.Fatalf("%v: backing after update = %v, want %v", b, got, want)
		}
		row := rowAt(t, v, 10)
		if row[1] != dataset.Float(12345) {
			t.Errorf("%v: row = %v", b, row[1])
		}
		xs, _, err := v.Column("SALARY")
		if err != nil || xs[10] != 12345 {
			t.Errorf("%v: column = %g, %v", b, xs[10], err)
		}
		if err := v.Undo(); err != nil {
			t.Fatal(err)
		}
		row = rowAt(t, v, 10)
		if row[1] == dataset.Float(12345) {
			t.Errorf("%v: undo not seen by reads", b)
		}
		storeMatchesData(t, v, b.String()+" after undo")
	}
}

func TestAttachStoreIOAsymmetry(t *testing.T) {
	// The E4 trade-off through the live view API: a column scan is
	// cheaper transposed; a row read is cheaper on the row store.
	mkview := func(b Backing) *View {
		v := newView(t, 2000, Options{})
		attach(t, v, b)
		return v
	}
	colTicks := func(v *View) int64 {
		if _, _, err := v.Column("SALARY"); err != nil {
			panic(err)
		}
		st, _ := v.StoreStats()
		return st.Ticks
	}
	rowTicks := func(v *View) int64 {
		for i := 0; i < 20; i++ {
			rowAt(t, v, i*97)
		}
		st, _ := v.StoreStats()
		return st.Ticks
	}
	rowScan := colTicks(mkview(BackingRow))
	colScan := colTicks(mkview(BackingTransposed))
	if colScan >= rowScan {
		t.Errorf("column scan: transposed %d >= row %d", colScan, rowScan)
	}
	rowRead := rowTicks(mkview(BackingRow))
	colRead := rowTicks(mkview(BackingTransposed))
	if rowRead >= colRead {
		t.Errorf("row reads: row store %d >= transposed %d", rowRead, colRead)
	}
}

func TestAttachStoreDetachOnSchemaChange(t *testing.T) {
	v := newView(t, 100, Options{})
	attach(t, v, BackingRow)
	err := v.AddDerived(
		dataset.Attribute{Name: "D", Kind: dataset.KindFloat, Summarizable: true},
		mustLocalRule(t, v, "SALARY"))
	if err != nil {
		t.Fatal(err)
	}
	if v.StoreBacking() != BackingMemory {
		t.Error("store survived a schema change")
	}
	// Detaching explicitly works too.
	attach(t, v, BackingTransposed)
	if err := v.AttachStore(BackingMemory, storage.DefaultDiskCost(), 8); err != nil {
		t.Fatal(err)
	}
	if v.StoreBacking() != BackingMemory {
		t.Error("explicit detach failed")
	}
	if _, err := v.StoreStats(); err == nil {
		t.Error("stats on detached store accepted")
	}
}

func TestReorganizeFollowsAdvice(t *testing.T) {
	v := newView(t, 2000, Options{})
	// Column-heavy usage.
	for i := 0; i < 20; i++ {
		if _, _, err := v.Column("SALARY"); err != nil {
			t.Fatal(err)
		}
	}
	b, err := v.Reorganize(storage.DefaultDiskCost(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if b != BackingTransposed || v.StoreBacking() != BackingTransposed {
		t.Fatalf("column-heavy reorganize chose %v", b)
	}
	// Reorganizing again with the same pattern is a no-op.
	if b2, err := v.Reorganize(storage.DefaultDiskCost(), 4); err != nil || b2 != BackingTransposed {
		t.Fatalf("second reorganize: %v, %v", b2, err)
	}
	// Row-heavy usage flips the layout.
	for i := 0; i < 500; i++ {
		rowAt(t, v, i%v.Rows())
	}
	b, err = v.Reorganize(storage.DefaultDiskCost(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if b != BackingRow {
		t.Fatalf("row-heavy reorganize chose %v", b)
	}
	// Data still intact after two migrations.
	xs, _, err := v.Column("SALARY")
	if err != nil || len(xs) != 2000 {
		t.Fatalf("post-migration column: %d, %v", len(xs), err)
	}
}

// An update detaches a row file, so a row-heavy Reorganize afterwards is
// not a no-op: it rebuilds the file from the updated record.
func TestReorganizeRebuildsDetachedRowFile(t *testing.T) {
	v := newView(t, 2000, Options{})
	attach(t, v, BackingRow)
	for i := 0; i < 500; i++ {
		rowAt(t, v, i%v.Rows())
	}
	if _, err := v.InvalidateWhere("SALARY",
		relalg.Cmp{Attr: "ID", Op: relalg.Lt, Val: dataset.Int(300)}); err != nil {
		t.Fatal(err)
	}
	if v.StoreBacking() != BackingMemory {
		t.Fatalf("row file still attached after an update: %v", v.StoreBacking())
	}
	b, err := v.Reorganize(storage.DefaultDiskCost(), 4)
	if err != nil || b != BackingRow || v.StoreBacking() != BackingRow {
		t.Fatalf("row-heavy reorganize = %v, %v; backing %v", b, err, v.StoreBacking())
	}
	storeMatchesData(t, v, "rebuilt row file")
	if row := rowAt(t, v, 10); !row[1].IsNull() {
		t.Errorf("rebuilt row 10 = %v, want SALARY missing", row)
	}
}

// TestVerifyStoreCountsOnPoolLedger: a verification scan bypasses the
// pool's frames but not its ledger — transient device reads are retried
// and charged under storage.retry.*, and a damaged page lands in
// storage.page.checksum_failed as well as in the report.
func TestVerifyStoreCountsOnPoolLedger(t *testing.T) {
	v := newView(t, 3000, Options{})
	inner := storage.NewMemDevice(storage.DefaultDiskCost())
	dev := storage.NewFaultDevice(inner, storage.FaultConfig{Seed: 11, ReadTransientRate: 0.3})
	dev.SetDisabled(true)
	if err := v.AttachStoreDevice(BackingTransposed, dev, 4); err != nil {
		t.Fatal(err)
	}
	// Damage one stored page behind the pool's back.
	buf := make([]byte, storage.PageSize)
	if err := inner.ReadPage(2, buf); err != nil {
		t.Fatal(err)
	}
	buf[storage.PageSize/2] ^= 0x40
	if err := inner.WritePage(2, buf); err != nil {
		t.Fatal(err)
	}
	dev.SetDisabled(false)
	reg := v.StoreMetrics()
	before := reg.Snapshot()
	ticks := inner.Stats().Ticks

	rep, err := v.VerifyStore()
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorruptPages != 1 || rep.PagesChecked < 3 {
		t.Fatalf("report = %v, want one corrupt page among several", rep)
	}
	after := reg.Snapshot()
	delta := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
	injected := dev.Faults().ReadTransient
	if injected == 0 {
		t.Fatal("fault device injected no transient reads; pick another seed")
	}
	if got := delta(obs.MStorageRetryAttempts); got != injected {
		t.Errorf("storage.retry.attempts moved by %d, want %d (one per injected fault)", got, injected)
	}
	if got := delta(obs.MStorageRetryBackoff); got == 0 || inner.Stats().Ticks-ticks < got {
		t.Errorf("backoff ticks = %d, device ticks moved by %d: backoff not charged to the device",
			got, inner.Stats().Ticks-ticks)
	}
	if got := delta(obs.MStorageChecksumFailed); got != 1 {
		t.Errorf("storage.page.checksum_failed moved by %d, want 1", got)
	}
	if got := delta(obs.MStoragePageReads); got != int64(rep.PagesChecked) {
		t.Errorf("storage.page.reads moved by %d, want %d", got, rep.PagesChecked)
	}
}

func mustLocalRule(t *testing.T, v *View, input string) rules.DerivedRule {
	t.Helper()
	si := v.Dataset().Schema().Index(input)
	return rules.DerivedRule{
		Inputs: []string{input},
		Scope:  rules.ScopeLocal,
		Row: func(sch *dataset.Schema, row dataset.Row) dataset.Value {
			if row[si].IsNull() {
				return dataset.Null
			}
			return dataset.Float(row[si].AsFloat() / 2)
		},
	}
}

// TestRowAtChargesItsRead: a record read through a row store is charged
// as a column read is — its device ticks reach the open span and its
// pages are metered against the query budget — so the read that crosses
// the budget's page ceiling fails with the budget's error.
func TestRowAtChargesItsRead(t *testing.T) {
	tr := obs.NewTracer()
	v, err := New(runsData(t, 4000), rules.NewManagementDB(), rules.ViewDef{
		Name: "rows", Analyst: "a", Source: "raw", Ops: []string{"all"},
	}, Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	attach(t, v, BackingRow)
	tr.SetBudget(obs.NewBudget(0, 1))
	sp := tr.Begin("query")
	defer sp.End()
	if _, err := v.RowAt(0); err != nil {
		t.Fatal(err)
	}
	if sp.Total() <= 0 {
		t.Errorf("a store row read charged %d ticks to its span", sp.Total())
	}
	var be *obs.BudgetError
	if _, err := v.RowAt(2000); !errors.As(err, &be) || be.Resource != "pages" {
		t.Errorf("a row read past the page ceiling returned %v, want the budget's *obs.BudgetError", err)
	}
}

// TestRowAtAllocatesOnlyItsRead: a store-backed RowAt that succeeds
// allocates what the store's row read allocates and nothing more; its
// error label is built only for a read that fails.
func TestRowAtAllocatesOnlyItsRead(t *testing.T) {
	v := newRunsView(t, 4000)
	attach(t, v, BackingRow)
	i := 0
	next := func() int { i = (i + 7) % 3000; return 1000 + i }
	read := testing.AllocsPerRun(100, func() {
		if _, err := v.store.readRow(next()); err != nil {
			t.Fatal(err)
		}
	})
	rowAt := testing.AllocsPerRun(100, func() {
		if _, err := v.RowAt(next()); err != nil {
			t.Fatal(err)
		}
	})
	if rowAt != read {
		t.Errorf("RowAt allocates %v per read, the store's read %v", rowAt, read)
	}
}
