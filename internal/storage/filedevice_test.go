package storage

import (
	"os"
	"path/filepath"
	"testing"

	"statdb/internal/dataset"
)

func TestFileDevicePersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.pages")
	dev, err := OpenFileDevice(path, DefaultDiskCost())
	if err != nil {
		t.Fatal(err)
	}
	sch := dataset.MustSchema(
		dataset.Attribute{Name: "K", Kind: dataset.KindString},
		dataset.Attribute{Name: "V", Kind: dataset.KindInt},
	)
	pool := NewBufferPool(dev, 4)
	h := NewHeapFile(pool, sch)
	var rids []RID
	for i := 0; i < 300; i++ {
		rid, err := h.Insert(dataset.Row{dataset.String("key"), dataset.Int(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and read back through fresh structures: the page image on
	// disk is the durable representation.
	dev2, err := OpenFileDevice(path, DefaultDiskCost())
	if err != nil {
		t.Fatal(err)
	}
	defer dev2.Close()
	pool2 := NewBufferPool(dev2, 4)
	for i, rid := range rids {
		page, err := pool2.Fetch(rid.Page)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := page.Get(rid.Slot)
		if err != nil {
			t.Fatalf("rid %v: %v", rid, err)
		}
		row, err := DecodeRow(rec, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !row[1].Equal(dataset.Int(int64(i))) {
			t.Fatalf("row %d = %v", i, row)
		}
		if err := pool2.Unpin(rid.Page, false); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFileDeviceErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.pages")
	dev, err := OpenFileDevice(path, DefaultDiskCost())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := dev.ReadPage(0, buf); err == nil {
		t.Error("read of unallocated page accepted")
	}
	if err := dev.WritePage(5, buf); err == nil {
		t.Error("write past end accepted")
	}
	if err := dev.ReadPage(0, make([]byte, 3)); err == nil {
		t.Error("short buffer accepted")
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}

	// Unaligned file rejected.
	bad := filepath.Join(t.TempDir(), "bad.pages")
	if err := os.WriteFile(bad, []byte("not a page"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileDevice(bad, DefaultDiskCost()); err == nil {
		t.Error("unaligned file accepted")
	}
}

func TestFileDeviceCostAccounting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.pages")
	dev, err := OpenFileDevice(path, CostModel{SeekCost: 10, TransferCost: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	// A page that was allocated but never written has no envelope and
	// reads back corrupt, so write sealed images first.
	buf := make([]byte, PageSize)
	NewPage(buf).Init()
	SealPage(buf)
	for i := 0; i < 3; i++ {
		id, err := dev.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	dev.ResetStats()
	for i := 0; i < 3; i++ {
		if err := dev.ReadPage(PageID(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	st := dev.Stats()
	if st.Seeks != 1 || st.Reads != 3 {
		t.Errorf("stats = %+v", st)
	}
}
