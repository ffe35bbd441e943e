package summary

import (
	"testing"

	"statdb/internal/rules"
	"statdb/internal/storage"
)

func buildDB(t *testing.T, n int, seed int64) (*DB, *column) {
	t.Helper()
	db := NewDB(rules.NewManagementDB())
	c := newColumn(n, seed)
	for _, fn := range []string{"mean", "min", "max", "sum", "median"} {
		if _, err := db.Scalar(fn, "SALARY", c.source()); err != nil {
			t.Fatal(err)
		}
	}
	return db, c
}

func TestStoreCheckpointRestoreRoundTrip(t *testing.T) {
	db, _ := buildDB(t, 300, 7)
	dev := storage.NewMemDevice(storage.DefaultDiskCost())
	pool := storage.NewBufferPool(dev, 16)
	st, err := NewStore(pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(db); err != nil {
		t.Fatal(err)
	}
	if st.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", st.Generation())
	}

	// "Crash": drop the pool, reopen the device cold.
	pool2 := storage.NewBufferPool(dev, 16)
	st2, err := OpenStore(pool2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Generation() != 1 {
		t.Fatalf("reopened generation = %d, want 1", st2.Generation())
	}
	restored := NewDB(rules.NewManagementDB())
	rep, err := st2.Restore(restored)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loaded != db.Len() || rep.Dropped != 0 || rep.CorruptPages != 0 {
		t.Fatalf("restore report %v, want %d loaded clean", rep, db.Len())
	}
	for _, fn := range []string{"mean", "min", "max", "sum", "median"} {
		want, _ := db.Lookup(fn, "SALARY")
		got, ok := restored.Lookup(fn, "SALARY")
		if !ok || got.Scalar != want.Scalar {
			t.Fatalf("%s: restored %v (ok=%v), want %v", fn, got.Scalar, ok, want.Scalar)
		}
	}
}

func TestStoreSecondCheckpointSupersedes(t *testing.T) {
	db, c := buildDB(t, 200, 9)
	dev := storage.NewMemDevice(storage.DefaultDiskCost())
	pool := storage.NewBufferPool(dev, 16)
	st, err := NewStore(pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(db); err != nil {
		t.Fatal(err)
	}
	// Change the data and cache a new mean, checkpoint again.
	c.xs[0] += 1000
	db.Invalidate("SALARY")
	mean2, err := db.Scalar("mean", "SALARY", c.source())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(db); err != nil {
		t.Fatal(err)
	}
	if st.Generation() != 2 {
		t.Fatalf("generation = %d, want 2", st.Generation())
	}

	restored := NewDB(rules.NewManagementDB())
	st2, err := OpenStore(storage.NewBufferPool(dev, 16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Restore(restored); err != nil {
		t.Fatal(err)
	}
	got, ok := restored.Lookup("mean", "SALARY")
	if !ok || got.Scalar != mean2 {
		t.Fatalf("restored mean = %v (ok=%v), want generation-2 value %v", got.Scalar, ok, mean2)
	}
}

func TestStoreTornCommitFallsBackToPriorGeneration(t *testing.T) {
	db, c := buildDB(t, 150, 11)
	inner := storage.NewMemDevice(storage.DefaultDiskCost())
	pool := storage.NewBufferPool(inner, 16)
	st, err := NewStore(pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(db); err != nil {
		t.Fatal(err)
	}
	mean1, _ := db.Lookup("mean", "SALARY")

	// Prepare generation 2 and crash it at the commit write.
	c.xs[0] += 500
	db.Invalidate("SALARY")
	if _, err := db.Scalar("mean", "SALARY", c.source()); err != nil {
		t.Fatal(err)
	}
	// The commit page for generation 2 is page (2 % 2) = 0; tear every
	// write to it so the commit record never lands intact.
	probe := &tearPageDevice{Device: inner, page: 0}
	poolB := storage.NewBufferPool(probe, 16)
	stB, err := OpenStore(poolB)
	if err != nil {
		t.Fatal(err)
	}
	if stB.Generation() != 1 {
		t.Fatalf("reopened generation = %d, want 1", stB.Generation())
	}
	if err := stB.Checkpoint(db); err != nil {
		t.Fatal(err) // the tear is silent, as a real torn write is
	}
	if probe.tears == 0 {
		t.Fatal("commit write was never torn; test is vacuous")
	}

	// Crash after the torn commit: restore must fall back to gen 1.
	restored := NewDB(rules.NewManagementDB())
	st2, err := OpenStore(storage.NewBufferPool(inner, 16))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := st2.Restore(restored)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Generation() != 1 {
		t.Fatalf("restored generation = %d, want fallback to 1", st2.Generation())
	}
	got, ok := restored.Lookup("mean", "SALARY")
	if !ok || got.Scalar != mean1.Scalar {
		t.Fatalf("fallback mean = %v (ok=%v), want generation-1 value %v", got.Scalar, ok, mean1.Scalar)
	}
	_ = rep
}

// tearPageDevice tears every write to one specific page: the first half
// (envelope, record header) never reaches the device — the crash hit
// before the head got there — while the second half lands. The old first
// half plus the new second half is the inconsistent image a real torn
// write leaves.
type tearPageDevice struct {
	storage.Device
	page  storage.PageID
	tears int
}

func (d *tearPageDevice) WritePage(id storage.PageID, buf []byte) error {
	if id == d.page {
		d.tears++
		torn := make([]byte, storage.PageSize)
		_ = d.Device.ReadPage(id, torn) // old image; zeros if never written
		copy(torn[storage.PageSize/2:], buf[storage.PageSize/2:])
		return d.Device.WritePage(id, torn)
	}
	return d.Device.WritePage(id, buf)
}

func TestStoreBothCommitsLostMeansEmptyRestore(t *testing.T) {
	db, _ := buildDB(t, 100, 13)
	dev := storage.NewMemDevice(storage.DefaultDiskCost())
	pool := storage.NewBufferPool(dev, 16)
	st, err := NewStore(pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(db); err != nil {
		t.Fatal(err)
	}
	// Scribble both commit slots.
	junk := make([]byte, storage.PageSize)
	for i := range junk {
		junk[i] = 0xEE
	}
	for slot := storage.PageID(0); slot < 2; slot++ {
		if err := dev.WritePage(slot, junk); err != nil {
			t.Fatal(err)
		}
	}
	restored := NewDB(rules.NewManagementDB())
	st2, err := OpenStore(storage.NewBufferPool(dev, 16))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := st2.Restore(restored)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loaded != 0 || restored.Len() != 0 {
		t.Fatalf("restore from lost commits loaded %d entries: %v", restored.Len(), rep)
	}
	if st2.Generation() != 0 {
		t.Fatalf("generation = %d, want 0 (full rebuild)", st2.Generation())
	}
}

func TestRestoreDegradesOnCorruptHeapPage(t *testing.T) {
	db, c := buildDB(t, 400, 17)
	// Many entries so the heap spans several pages: add per-attribute
	// entries on more attributes.
	for i := 0; i < 40; i++ {
		attr := "A" + string(rune('0'+i%10)) + string(rune('a'+i/10))
		db.StoreCustom("note", []string{attr},
			TextOf("attr note with some padding text to fill pages ............................................."+attr))
	}
	dev := storage.NewMemDevice(storage.DefaultDiskCost())
	pool := storage.NewBufferPool(dev, 32)
	st, err := NewStore(pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(db); err != nil {
		t.Fatal(err)
	}
	rec, ok := st.bestCommit()
	if !ok || len(rec.pages) < 2 {
		t.Fatalf("need >=2 heap pages for this test, got %v ok=%v", rec.pages, ok)
	}
	// Flip a payload bit in the first heap page, on the device.
	buf := make([]byte, storage.PageSize)
	if err := dev.ReadPage(rec.pages[0], buf); err != nil {
		t.Fatal(err)
	}
	buf[storage.PageEnvelopeSize+100] ^= 0x4
	if err := dev.WritePage(rec.pages[0], buf); err != nil {
		t.Fatal(err)
	}

	restored := NewDB(rules.NewManagementDB())
	st2, err := OpenStore(storage.NewBufferPool(dev, 32))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := st2.Restore(restored)
	if err != nil {
		t.Fatalf("restore failed instead of degrading: %v", err)
	}
	if rep.CorruptPages != 1 {
		t.Fatalf("report %v, want exactly one corrupt page", rep)
	}
	if rep.Loaded == 0 {
		t.Fatalf("nothing salvaged from the intact pages: %v", rep)
	}
	if restored.Len() != rep.Loaded+rep.StaleMarked {
		t.Fatalf("entry count %d != loaded %d + stale %d", restored.Len(), rep.Loaded, rep.StaleMarked)
	}

	// The cache semantics make the degraded restore exact: any entry that
	// was dropped recomputes on access and must equal the clean value.
	for _, fn := range []string{"mean", "min", "max", "sum", "median"} {
		want, _ := db.Lookup(fn, "SALARY")
		got, err := restored.Scalar(fn, "SALARY", c.source())
		if err != nil {
			t.Fatal(err)
		}
		if got != want.Scalar {
			t.Fatalf("%s after degraded restore = %v, want %v", fn, got, want.Scalar)
		}
	}
}
