package storage

import (
	"errors"
	"fmt"
	"testing"

	"statdb/internal/dataset"
	"statdb/internal/obs"
)

func testSchema(t *testing.T) *dataset.Schema {
	t.Helper()
	return dataset.MustSchema(
		dataset.Attribute{Name: "id", Kind: dataset.KindInt},
		dataset.Attribute{Name: "x", Kind: dataset.KindFloat},
	)
}

func TestSealVerifyRoundTrip(t *testing.T) {
	buf := make([]byte, PageSize)
	p := NewPage(buf)
	p.Init()
	if _, err := p.Insert([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	SealPage(buf)
	if err := VerifyPageBuf(buf, 7); err != nil {
		t.Fatalf("sealed page fails verification: %v", err)
	}
	// Flip one payload bit: verification must fail with a CorruptError
	// naming the page.
	buf[PageEnvelopeSize+3] ^= 0x10
	err := VerifyPageBuf(buf, 7)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt page verified: %v", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Page != 7 {
		t.Fatalf("error does not locate page 7: %v", err)
	}
}

func TestFaultDeviceDeterminism(t *testing.T) {
	cfg := FaultConfig{Seed: 99, ReadTransientRate: 0.5}
	run := func() []bool {
		dev := NewFaultDevice(NewMemDevice(DefaultDiskCost()), cfg)
		id, _ := dev.Allocate()
		buf := make([]byte, PageSize)
		var outcomes []bool
		for i := 0; i < 32; i++ {
			outcomes = append(outcomes, dev.ReadPage(id, buf) == nil)
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault stream diverged at op %d", i)
		}
	}
}

func TestPoolRetryRecoversTransientRead(t *testing.T) {
	inner := NewMemDevice(DefaultDiskCost())
	// Exactly two faults, both read-transient: the pool's four attempts
	// absorb them.
	dev := NewFaultDevice(inner, FaultConfig{Seed: 1, ReadTransientRate: 1, MaxFaults: 2})
	pool := NewBufferPool(dev, 4)
	h := NewHeapFile(pool, testSchema(t))
	dev.SetDisabled(true) // build clean state
	rid, err := h.Insert(dataset.Row{dataset.Int(1), dataset.Float(2.5)})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	dev.SetDisabled(false)

	// Evict the page so the next access is a device read.
	fresh := NewBufferPool(dev, 4)
	h2 := OpenHeapFile(fresh, testSchema(t), h.Pages(), h.count)
	before := inner.Stats().Ticks
	row, err := h2.Get(rid)
	if err != nil {
		t.Fatalf("get after transient faults: %v", err)
	}
	if row[0].AsInt() != 1 {
		t.Fatalf("row = %v", row)
	}
	if r, rec, ex := counter(t, fresh, obs.MStorageRetryAttempts), counter(t, fresh, obs.MStorageRetryRecovered),
		counter(t, fresh, obs.MStorageRetryExhausted); r != 2 || rec != 1 || ex != 0 {
		t.Fatalf("retries=%d recovered=%d exhausted=%d, want 2 retries, 1 recovered", r, rec, ex)
	}
	backoff := counter(t, fresh, obs.MStorageRetryBackoff)
	if backoff != 8+16 {
		t.Fatalf("backoff ticks = %d, want 24 (8 then 16)", backoff)
	}
	if got := inner.Stats().Ticks - before; got < backoff {
		t.Fatalf("device ledger gained %d ticks, want at least the %d backoff", got, backoff)
	}
}

func TestPoolRetryExhausts(t *testing.T) {
	dev := NewFaultDevice(NewMemDevice(DefaultDiskCost()), FaultConfig{Seed: 1, ReadTransientRate: 1})
	id, _ := dev.Allocate()
	pool := NewBufferPool(dev, 4)
	_, err := pool.Fetch(id)
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("fetch error = %v, want ErrTransient", err)
	}
	if r, ex := counter(t, pool, obs.MStorageRetryAttempts), counter(t, pool, obs.MStorageRetryExhausted); ex != 1 || r != 3 {
		t.Fatalf("retries=%d exhausted=%d, want 3 retries and 1 exhausted", r, ex)
	}
	if faults := dev.Faults(); faults.ReadTransient != 4 {
		t.Fatalf("injected %d read faults, want 4 (one per attempt)", faults.ReadTransient)
	}
}

func TestTornWriteCaughtByChecksum(t *testing.T) {
	inner := NewMemDevice(DefaultDiskCost())
	dev := NewFaultDevice(inner, FaultConfig{Seed: 3, TornWriteRate: 1, MaxFaults: 1})
	pool := NewBufferPool(dev, 4)
	h := NewHeapFile(pool, testSchema(t))
	if _, err := h.Insert(dataset.Row{dataset.Int(42), dataset.Float(1)}); err != nil {
		t.Fatal(err)
	}
	// The flush is torn: only the first half (envelope + early payload)
	// lands; the slot directory at the page tail reads back as zeros.
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if f := dev.Faults(); f.TornWrites != 1 {
		t.Fatalf("faults = %+v, want one torn write", f)
	}
	fresh := NewBufferPool(dev, 4)
	_, err := fresh.Fetch(h.Pages()[0])
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("fetch of torn page = %v, want ErrCorrupt", err)
	}
}

func TestBitFlipCaughtByChecksum(t *testing.T) {
	// Wherever the flipped bit lands — payload or envelope — the fetch
	// must fail: every seed, no exceptions.
	for seed := uint64(1); seed <= 64; seed++ {
		inner := NewMemDevice(DefaultDiskCost())
		dev := NewFaultDevice(inner, FaultConfig{Seed: seed, BitFlipRate: 1, MaxFaults: 1})
		pool := NewBufferPool(dev, 4)
		h := NewHeapFile(pool, testSchema(t))
		if _, err := h.Insert(dataset.Row{dataset.Int(7), dataset.Float(7)}); err != nil {
			t.Fatal(err)
		}
		if err := pool.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if f := dev.Faults(); f.BitFlips != 1 {
			t.Fatalf("seed %d: faults = %+v, want one bit flip", seed, f)
		}
		fresh := NewBufferPool(dev, 4)
		if _, err := fresh.Fetch(h.Pages()[0]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("seed %d: fetch of bit-flipped page = %v, want ErrCorrupt", seed, err)
		}
		if got := counter(t, fresh, obs.MStorageChecksumFailed); got != 1 {
			t.Errorf("seed %d: checksum.failed = %d, want 1", seed, got)
		}
	}
}

// TestEnvelopeBitFlipsAreCorrupt closes the hole a second layout version
// used to open: damage to the envelope itself (magic, version, flags or
// the stored CRC) cannot demote a page to "unverifiable" — each of its
// 64 bits, flipped alone, fails the fetch.
func TestEnvelopeBitFlipsAreCorrupt(t *testing.T) {
	dev := NewMemDevice(DefaultDiskCost())
	pool := NewBufferPool(dev, 4)
	h := NewHeapFile(pool, testSchema(t))
	if _, err := h.Insert(dataset.Row{dataset.Int(7), dataset.Float(7)}); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	id := h.Pages()[0]
	sealed := make([]byte, PageSize)
	if err := dev.ReadPage(id, sealed); err != nil {
		t.Fatal(err)
	}
	if err := VerifyPageBuf(sealed, id); err != nil {
		t.Fatalf("sealed page fails verification: %v", err)
	}
	for bit := 0; bit < 8*PageEnvelopeSize; bit++ {
		img := append([]byte(nil), sealed...)
		img[bit/8] ^= 1 << (bit % 8)
		if err := dev.WritePage(id, img); err != nil {
			t.Fatal(err)
		}
		fresh := NewBufferPool(dev, 4)
		if _, err := fresh.Fetch(id); !errors.Is(err, ErrCorrupt) {
			t.Errorf("envelope bit %d flipped: fetch = %v, want ErrCorrupt", bit, err)
		}
		if got := counter(t, fresh, obs.MStorageChecksumFailed); got != 1 {
			t.Errorf("envelope bit %d flipped: checksum.failed = %d, want 1", bit, got)
		}
	}
}

func TestStuckPageDetectedOnReload(t *testing.T) {
	inner := NewMemDevice(DefaultDiskCost())
	dev := NewFaultDevice(inner, FaultConfig{Seed: 5, StuckPageRate: 1, MaxFaults: 1})
	pool := NewBufferPool(dev, 4)
	h := NewHeapFile(pool, testSchema(t))
	if _, err := h.Insert(dataset.Row{dataset.Int(1), dataset.Float(1)}); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err) // silently dropped — reports success
	}
	if f := dev.Faults(); f.StuckPages != 1 {
		t.Fatalf("faults = %+v, want one stuck page", f)
	}
	// The device still holds the all-zero image, which carries no
	// envelope: the fetch reports corruption rather than decoding garbage.
	fresh := NewBufferPool(dev, 4)
	h2 := OpenHeapFile(fresh, testSchema(t), h.Pages(), h.count)
	if _, err := h2.Get(RID{h.Pages()[0], 0}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("get from stuck page = %v, want ErrCorrupt", err)
	}
}

// failWriteDevice fails every WritePage of one page with a permanent
// error until allowed.
type failWriteDevice struct {
	Device
	bad   PageID
	allow bool
}

func (d *failWriteDevice) WritePage(id PageID, buf []byte) error {
	if id == d.bad && !d.allow {
		return fmt.Errorf("simulated permanent write failure")
	}
	return d.Device.WritePage(id, buf)
}

func TestFlushAllReportsPageAndStaysRetryable(t *testing.T) {
	fd := &failWriteDevice{Device: NewMemDevice(DefaultDiskCost()), bad: InvalidPage}
	pool2 := NewBufferPool(fd, 8)
	h2 := NewHeapFile(pool2, testSchema(t))
	for i := 0; i < 600; i++ { // spans several pages
		if _, err := h2.Insert(dataset.Row{dataset.Int(int64(i)), dataset.Float(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if len(h2.Pages()) < 2 {
		t.Fatalf("need >=2 pages, got %d", len(h2.Pages()))
	}
	fd.bad = h2.Pages()[0]
	err := pool2.FlushAll()
	if err == nil {
		t.Fatal("flush with failing page reported success")
	}
	if want := fmt.Sprintf("page %d", fd.bad); !contains(err.Error(), want) {
		t.Fatalf("flush error %q does not name %s", err, want)
	}
	// Other pages flushed; the failed page stayed dirty, so a retry after
	// the fault clears succeeds and the data survives.
	fd.allow = true
	if err := pool2.FlushAll(); err != nil {
		t.Fatalf("retry flush: %v", err)
	}
	fresh := NewBufferPool(fd, 8)
	h3 := OpenHeapFile(fresh, testSchema(t), h2.Pages(), h2.count)
	n := 0
	if err := h3.Scan(func(_ RID, row dataset.Row) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 600 {
		t.Fatalf("recovered %d rows, want 600", n)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestBufferPoolLabeledRetryCounters(t *testing.T) {
	dev := NewFaultDevice(NewMemDevice(DefaultDiskCost()),
		FaultConfig{Seed: 1, ReadTransientRate: 1, MaxFaults: 2})
	pool := NewBufferPool(dev, 4)
	pool.SetLabel("shard2")
	dev.SetDisabled(true)
	id := dirtyPage(t, pool)
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	dev.SetDisabled(false)

	fresh := NewBufferPool(dev, 4)
	fresh.SetLabel("shard2")
	if _, err := fresh.Fetch(id); err != nil {
		t.Fatalf("fetch after transient faults: %v", err)
	}
	reg := fresh.Metrics()
	if v := reg.Counter(obs.LabeledName(obs.MStorageRetryAttempts, "shard2")).Value(); v != 2 {
		t.Fatalf("labeled retry attempts = %d, want 2", v)
	}
	if v := reg.Counter(obs.LabeledName(obs.MStorageRetryRecovered, "shard2")).Value(); v != 1 {
		t.Fatalf("labeled recovered = %d, want 1", v)
	}
	// The global families moved in lockstep.
	if r, rec := counter(t, fresh, obs.MStorageRetryAttempts), counter(t, fresh, obs.MStorageRetryRecovered); r != 2 || rec != 1 {
		t.Fatalf("global retries=%d recovered=%d, want 2 retries 1 recovered", r, rec)
	}
}
