package storage

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"statdb/internal/dataset"
)

func TestMemDeviceReadWrite(t *testing.T) {
	d := NewMemDevice(DefaultDiskCost())
	id, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	buf[0], buf[PageSize-1] = 0xAB, 0xCD
	if err := d.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := d.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, got) {
		t.Error("read back differs")
	}
	if err := d.ReadPage(99, got); err == nil {
		t.Error("read of unallocated page accepted")
	}
	if err := d.ReadPage(id, make([]byte, 10)); err == nil {
		t.Error("short buffer accepted")
	}
}

func TestMemDeviceCostAccounting(t *testing.T) {
	d := NewMemDevice(CostModel{SeekCost: 100, TransferCost: 1})
	for i := 0; i < 4; i++ {
		if _, err := d.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, PageSize)
	// Sequential scan 0..3: one seek + four transfers.
	for i := 0; i < 4; i++ {
		if err := d.ReadPage(PageID(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.Seeks != 1 || st.Ticks != 100+4 {
		t.Errorf("sequential: %+v, want 1 seek and 104 ticks", st)
	}
	d.ResetStats()
	// Random order 3,0,2: every access seeks (0 follows 3? no: 0 != 3+1).
	for _, i := range []PageID{3, 0, 2} {
		if err := d.ReadPage(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	st = d.Stats()
	if st.Seeks != 3 || st.Ticks != 3*100+3 {
		t.Errorf("random: %+v, want 3 seeks and 303 ticks", st)
	}
}

func TestPageInsertGetDelete(t *testing.T) {
	buf := make([]byte, PageSize)
	p := NewPage(buf)
	p.Init()
	s0, err := p.Insert([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := p.Insert([]byte("world!!"))
	if err != nil {
		t.Fatal(err)
	}
	if s0 == s1 {
		t.Fatal("duplicate slots")
	}
	if got, _ := p.Get(s0); string(got) != "hello" {
		t.Errorf("Get(s0) = %q", got)
	}
	if err := p.Delete(s0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(s0); err != ErrRecordDeleted {
		t.Errorf("Get deleted = %v", err)
	}
	if err := p.Delete(s0); err != ErrRecordDeleted {
		t.Errorf("double delete = %v", err)
	}
	if got, _ := p.Get(s1); string(got) != "world!!" {
		t.Errorf("Get(s1) = %q after delete of s0", got)
	}
	if _, err := p.Get(99); err == nil {
		t.Error("out-of-range slot accepted")
	}
}

func TestPageFull(t *testing.T) {
	p := NewPage(make([]byte, PageSize))
	p.Init()
	rec := make([]byte, 1000)
	var n int
	for {
		if _, err := p.Insert(rec); err != nil {
			if err != ErrPageFull {
				t.Fatalf("unexpected error %v", err)
			}
			break
		}
		n++
	}
	if n != 4 { // 4*1000 + header + slots fits; a 5th 1000-byte record cannot
		t.Errorf("inserted %d kilobyte records, want 4", n)
	}
	if _, err := p.Insert(make([]byte, MaxRecordSize+1)); err == ErrPageFull {
		t.Error("oversized record reported as page-full, want size error")
	}
}

func TestPageUpdateInPlaceAndGrow(t *testing.T) {
	p := NewPage(make([]byte, PageSize))
	p.Init()
	s, err := p.Insert([]byte("aaaa"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Update(s, []byte("bb")); err != nil { // shrink in place
		t.Fatal(err)
	}
	if got, _ := p.Get(s); string(got) != "bb" {
		t.Errorf("after shrink: %q", got)
	}
	if err := p.Update(s, []byte("cccccccc")); err != nil { // grow, relocates
		t.Fatal(err)
	}
	if got, _ := p.Get(s); string(got) != "cccccccc" {
		t.Errorf("after grow: %q", got)
	}
}

func TestPageCompact(t *testing.T) {
	p := NewPage(make([]byte, PageSize))
	p.Init()
	var slots []int
	for i := 0; i < 8; i++ {
		s, err := p.Insert(bytes.Repeat([]byte{byte('a' + i)}, 400))
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	// Delete every other record, compact, verify survivors intact.
	for i := 0; i < 8; i += 2 {
		if err := p.Delete(slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	before := p.FreeSpace()
	p.Compact()
	if p.FreeSpace() <= before {
		t.Errorf("compact did not reclaim space: %d -> %d", before, p.FreeSpace())
	}
	for i := 1; i < 8; i += 2 {
		got, err := p.Get(slots[i])
		if err != nil {
			t.Fatalf("slot %d: %v", slots[i], err)
		}
		want := bytes.Repeat([]byte{byte('a' + i)}, 400)
		if !bytes.Equal(got, want) {
			t.Errorf("slot %d corrupted after compact", slots[i])
		}
	}
}

func TestBufferPoolHitMissEvict(t *testing.T) {
	dev := NewMemDevice(DefaultDiskCost())
	bp := NewBufferPool(dev, 2)
	var ids []PageID
	for i := 0; i < 3; i++ {
		id, p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Insert([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := bp.Unpin(id, true); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Pool holds 2 of the 3 pages; fetching the evicted one must re-read
	// the flushed contents.
	for i, id := range ids {
		p, err := bp.Fetch(id)
		if err != nil {
			t.Fatalf("fetch %d: %v", id, err)
		}
		rec, err := p.Get(0)
		if err != nil || rec[0] != byte(i) {
			t.Errorf("page %d: rec=%v err=%v", id, rec, err)
		}
		if err := bp.Unpin(id, false); err != nil {
			t.Fatal(err)
		}
	}
	if dev.Stats().Writes == 0 {
		t.Error("eviction never wrote a dirty page")
	}
}

func TestBufferPoolPinnedPagesNotEvicted(t *testing.T) {
	dev := NewMemDevice(DefaultDiskCost())
	bp := NewBufferPool(dev, 1)
	id, _, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	// Page id is pinned; allocating another must fail, not evict it.
	if _, _, err := bp.NewPage(); err == nil {
		t.Error("pool evicted a pinned page")
	}
	if err := bp.Unpin(id, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := bp.NewPage(); err != nil {
		t.Errorf("after unpin: %v", err)
	}
}

func TestBufferPoolUnpinErrors(t *testing.T) {
	bp := NewBufferPool(NewMemDevice(DefaultDiskCost()), 2)
	if err := bp.Unpin(5, false); err == nil {
		t.Error("unpin of unbuffered page accepted")
	}
	id, _, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.Unpin(id, false); err != nil {
		t.Fatal(err)
	}
	if err := bp.Unpin(id, false); err == nil {
		t.Error("double unpin accepted")
	}
}

func rowSchema(t *testing.T) *dataset.Schema {
	t.Helper()
	return dataset.MustSchema(
		dataset.Attribute{Name: "K", Kind: dataset.KindString, Category: true},
		dataset.Attribute{Name: "N", Kind: dataset.KindInt},
		dataset.Attribute{Name: "X", Kind: dataset.KindFloat},
	)
}

func TestRowCodecRoundTrip(t *testing.T) {
	rows := []dataset.Row{
		{dataset.String("M/W"), dataset.Int(12300347), dataset.Float(33122.5)},
		{dataset.Null, dataset.Int(-1), dataset.Float(0)},
		{dataset.String(""), dataset.Null, dataset.Null},
	}
	for i, r := range rows {
		enc := EncodeRow(nil, r)
		dec, err := DecodeRow(enc, len(r))
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		for j := range r {
			if !dec[j].Equal(r[j]) {
				t.Errorf("row %d value %d: %v != %v", i, j, dec[j], r[j])
			}
		}
	}
}

func TestRowCodecCorruption(t *testing.T) {
	enc := EncodeRow(nil, dataset.Row{dataset.String("hello"), dataset.Int(42)})
	if _, err := DecodeRow(enc[:3], 2); err == nil {
		t.Error("truncated record decoded")
	}
	if _, err := DecodeRow(enc, 1); err == nil {
		t.Error("trailing bytes accepted")
	}
	bad := append([]byte{0x7F}, enc...)
	if _, err := DecodeRow(bad, 2); err == nil {
		t.Error("unknown tag accepted")
	}
}

func TestRowCodecProperty(t *testing.T) {
	f := func(s string, n int64, x float64, nullMask uint8) bool {
		r := dataset.Row{dataset.String(s), dataset.Int(n), dataset.Float(x)}
		for b := 0; b < 3; b++ {
			if nullMask&(1<<b) != 0 {
				r[b] = dataset.Null
			}
		}
		dec, err := DecodeRow(EncodeRow(nil, r), 3)
		if err != nil {
			return false
		}
		for i := range r {
			if !dec[i].Equal(r[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeapFileInsertScan(t *testing.T) {
	dev := NewMemDevice(DefaultDiskCost())
	h := NewHeapFile(NewBufferPool(dev, 8), rowSchema(t))
	const n = 500
	var rids []RID
	for i := 0; i < n; i++ {
		rid, err := h.Insert(dataset.Row{
			dataset.String(fmt.Sprintf("key%04d", i)),
			dataset.Int(int64(i)),
			dataset.Float(float64(i) / 2),
		})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if h.count != n {
		t.Fatalf("Count = %d", h.count)
	}
	if h.NumPages() < 2 {
		t.Fatalf("expected multiple pages, got %d", h.NumPages())
	}
	var seen int
	err := h.Scan(func(_ RID, row dataset.Row) bool {
		if !row[1].Equal(dataset.Int(int64(seen))) {
			t.Errorf("row %d out of order: %v", seen, row[1])
		}
		seen++
		return true
	})
	if err != nil || seen != n {
		t.Fatalf("scan: seen=%d err=%v", seen, err)
	}
	// Random access through RIDs.
	row, err := h.Get(rids[123])
	if err != nil || !row[1].Equal(dataset.Int(123)) {
		t.Errorf("Get(rids[123]) = %v, %v", row, err)
	}
}

func TestHeapFileUpdateDelete(t *testing.T) {
	dev := NewMemDevice(DefaultDiskCost())
	h := NewHeapFile(NewBufferPool(dev, 4), rowSchema(t))
	rid, err := h.Insert(dataset.Row{dataset.String("a"), dataset.Int(1), dataset.Float(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Update(rid, dataset.Row{dataset.String("a-longer-key"), dataset.Int(2), dataset.Float(2)}); err != nil {
		t.Fatal(err)
	}
	row, err := h.Get(rid)
	if err != nil || !row[1].Equal(dataset.Int(2)) {
		t.Fatalf("after update: %v, %v", row, err)
	}
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(rid); err == nil {
		t.Error("Get after Delete succeeded")
	}
	if h.count != 0 {
		t.Errorf("Count = %d after delete", h.count)
	}
}

func TestHeapFileScanEarlyStop(t *testing.T) {
	dev := NewMemDevice(DefaultDiskCost())
	h := NewHeapFile(NewBufferPool(dev, 4), rowSchema(t))
	for i := 0; i < 50; i++ {
		if _, err := h.Insert(dataset.Row{dataset.String("k"), dataset.Int(int64(i)), dataset.Float(0)}); err != nil {
			t.Fatal(err)
		}
	}
	var seen int
	if err := h.Scan(func(RID, dataset.Row) bool { seen++; return seen < 10 }); err != nil {
		t.Fatal(err)
	}
	if seen != 10 {
		t.Errorf("seen = %d, want 10", seen)
	}
}

func TestHeapFileLoadMaterializeRoundTrip(t *testing.T) {
	sch := rowSchema(t)
	src := dataset.New(sch)
	for i := 0; i < 100; i++ {
		if err := src.Append(dataset.Row{
			dataset.String(fmt.Sprintf("k%d", i)), dataset.Int(int64(i * 7)), dataset.Float(float64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	dev := NewMemDevice(DefaultDiskCost())
	h := NewHeapFile(NewBufferPool(dev, 8), sch)
	if _, err := h.Load(src); err != nil {
		t.Fatal(err)
	}
	got, err := h.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != src.Rows() {
		t.Fatalf("rows = %d, want %d", got.Rows(), src.Rows())
	}
	for i := 0; i < src.Rows(); i++ {
		for c := 0; c < sch.Len(); c++ {
			if !got.Cell(i, c).Equal(src.Cell(i, c)) {
				t.Fatalf("cell (%d,%d) differs", i, c)
			}
		}
	}
}

// Delete removes the record at rid.
func (h *HeapFile) Delete(rid RID) error {
	p, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	err = p.Delete(rid.Slot)
	dirty := err == nil
	if uerr := h.pool.Unpin(rid.Page, dirty); uerr != nil && err == nil {
		err = uerr
	}
	if err == nil {
		h.count--
	}
	return err
}

// Materialize reads the whole file back into an in-memory data set in
// file order. A decoded row the schema rejects means the stored bytes
// were wrong despite decoding — reported as corruption, not a panic.
func (h *HeapFile) Materialize() (*dataset.Dataset, error) {
	out := dataset.New(h.schema)
	var appendErr error
	err := h.Scan(func(rid RID, row dataset.Row) bool {
		if err := out.Append(row); err != nil {
			appendErr = &CorruptError{Page: rid.Page, Slot: rid.Slot, Off: -1,
				Detail: "decoded row rejected by schema", Cause: err}
			return false
		}
		return true
	})
	if err == nil {
		err = appendErr
	}
	return out, err
}

// Delete marks slot deleted. Its space is reclaimed by Compact.
func (p *Page) Delete(slot int) error {
	if slot < 0 || slot >= p.slotCount() {
		return fmt.Errorf("storage: slot %d out of range [0,%d)", slot, p.slotCount())
	}
	off, _ := p.slot(slot)
	if off == deletedOffset {
		return ErrRecordDeleted
	}
	p.setSlot(slot, deletedOffset, 0)
	return nil
}
