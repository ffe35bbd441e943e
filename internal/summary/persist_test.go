package summary

import (
	"testing"

	"statdb/internal/incr"
	"statdb/internal/rules"
	"statdb/internal/stats"
	"statdb/internal/storage"
)

func TestResultCodecRoundTrip(t *testing.T) {
	h, err := stats.NewHistogram([]float64{1, 2, 3, 4, 5}, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []Result{
		ScalarOf(29402),
		ScalarOf(-1.5e-7),
		VectorOf([]float64{1, 2.5, -3}),
		VectorOf(nil),
		HistogramOf(h),
		TextOf("analysis stalled on AGE outliers"),
		TextOf(""),
	}
	for i, r := range cases {
		got, err := decodeResult(encodeResult(r))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Kind != r.Kind {
			t.Fatalf("case %d: kind %v != %v", i, got.Kind, r.Kind)
		}
		if got.String() != r.String() {
			t.Errorf("case %d: %q != %q", i, got.String(), r.String())
		}
	}
	if _, err := decodeResult(nil); err == nil {
		t.Error("empty encoding decoded")
	}
	if _, err := decodeResult([]byte{99}); err == nil {
		t.Error("unknown kind decoded")
	}
	if _, err := decodeResult([]byte{byte(ScalarResult), 1, 2}); err == nil {
		t.Error("truncated scalar decoded")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	mdb := rules.NewManagementDB()
	db := NewDB(mdb)
	c := newColumn(500, 41)
	for _, fn := range []string{"mean", "min", "max", "median"} {
		if _, err := db.Scalar(fn, "SALARY", c.source()); err != nil {
			t.Fatal(err)
		}
	}
	db.StoreCustom("note", []string{"SALARY"}, TextOf("checked 1982-02-01"))
	// Make one entry stale so freshness persists too.
	db.OnUpdate("SALARY", []incr.Delta{incr.UpdateOf(c.xs[0], c.xs[0]+1)})
	c.xs[0]++

	dev := storage.NewMemDevice(storage.DefaultDiskCost())
	pool := storage.NewBufferPool(dev, 16)
	heap := NewSummaryHeapFile(pool)
	if err := db.Save(heap); err != nil {
		t.Fatal(err)
	}

	restored := NewDB(mdb)
	rep, err := Load(restored, heap)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped != 0 || rep.StaleMarked != 0 || rep.CorruptPages != 0 {
		t.Fatalf("clean load degraded: %v", rep)
	}
	if rep.Loaded != db.Len() {
		t.Fatalf("report says %d loaded, want %d", rep.Loaded, db.Len())
	}
	if restored.Len() != db.Len() {
		t.Fatalf("restored %d entries, want %d", restored.Len(), db.Len())
	}
	// Fresh entries answer without recomputation.
	got, ok := restored.Lookup("mean", "SALARY")
	want, _ := db.Lookup("mean", "SALARY")
	if !ok || got.Scalar != want.Scalar {
		t.Errorf("restored mean = %v, %v (want %v)", got, ok, want)
	}
	// The note was invalidated by the pre-save update (custom entries use
	// the invalidate strategy), so Lookup refuses it — but its payload
	// survived the round trip.
	if _, ok := restored.Lookup("note", "SALARY"); ok {
		t.Error("stale note served as fresh after restore")
	}
	foundNote := false
	for _, row := range restored.Dump() {
		if row.Function == "note" {
			foundNote = true
			if row.Fresh {
				t.Error("note restored as fresh")
			}
			if row.Result != "checked 1982-02-01" {
				t.Errorf("note payload = %q", row.Result)
			}
		}
	}
	if !foundNote {
		t.Error("note entry lost in round trip")
	}
	// Freshness states survive entry by entry.
	freshCount := 0
	for _, row := range restored.Dump() {
		if row.Fresh {
			freshCount++
		}
	}
	wantFresh := 0
	for _, row := range db.Dump() {
		if row.Fresh {
			wantFresh++
		}
	}
	if freshCount != wantFresh {
		t.Errorf("fresh entries = %d, want %d", freshCount, wantFresh)
	}
}
