package view

import (
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
		row := v.RowAt(123)
		if !row[0].Equal(dataset.Int(123)) {
			t.Errorf("%v: RowAt = %v", b, row)
		}
	}
}

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
		// Reads through the store see the update.
		row := v.RowAt(10)
		if !row[1].Equal(dataset.Float(12345)) {
			t.Errorf("%v: store row = %v", b, row[1])
		}
		xs, _, err := v.Column("SALARY")
		if err != nil || xs[10] != 12345 {
			t.Errorf("%v: store column = %g, %v", b, xs[10], err)
		}
		// Undo writes back through as well.
		if err := v.Undo(); err != nil {
			t.Fatal(err)
		}
		row = v.RowAt(10)
		if row[1].Equal(dataset.Float(12345)) {
			t.Errorf("%v: undo not mirrored to store", b)
		}
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
			v.RowAt(i * 97)
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
		v.RowAt(i % v.Rows())
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
