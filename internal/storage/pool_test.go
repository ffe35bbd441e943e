package storage

import (
	"bytes"
	"errors"
	"testing"

	"statdb/internal/obs"
)

// writePages puts n slotted pages on dev through a scratch pool, page i
// holding the one record {i}, and returns their ids.
func writePages(t *testing.T, dev Device, n int) []PageID {
	t.Helper()
	bp := NewBufferPool(dev, 2)
	var ids []PageID
	for i := 0; i < n; i++ {
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
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return ids
}

// fetchRecord fetches id, checks it holds the record {want}, and unpins.
func fetchRecord(t *testing.T, bp *BufferPool, id PageID, want byte) {
	t.Helper()
	p, err := bp.Fetch(id)
	if err != nil {
		t.Fatalf("fetch %d: %v", id, err)
	}
	if rec, err := p.Get(0); err != nil || len(rec) != 1 || rec[0] != want {
		t.Fatalf("page %d: record %v (%v), want [%d]", id, rec, err, want)
	}
	if err := bp.Unpin(id, false); err != nil {
		t.Fatal(err)
	}
}

// buffers counts the page buffers the pool owns, resident and free.
func buffers(bp *BufferPool) int { return len(bp.frames) + len(bp.free) }

func TestPoolHitAllocatesNothing(t *testing.T) {
	dev := NewMemDevice(DefaultDiskCost())
	ids := writePages(t, dev, 1)
	bp := NewBufferPool(dev, 4)
	fetchRecord(t, bp, ids[0], 0)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := bp.Fetch(ids[0]); err != nil {
			t.Fatal(err)
		}
		if err := bp.Unpin(ids[0], false); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a pool hit allocates %v times, want 0", allocs)
	}
}

func TestPoolMissIntoFullPoolAllocatesNothing(t *testing.T) {
	dev := NewMemDevice(DefaultDiskCost())
	ids := writePages(t, dev, 8)
	bp := NewBufferPool(dev, 3)
	next := 0
	fetch := func() {
		id := ids[next%len(ids)]
		next++
		if _, err := bp.Fetch(id); err != nil {
			t.Fatal(err)
		}
		if err := bp.Unpin(id, false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < len(ids); i++ { // fill the pool
		fetch()
	}
	misses := counter(t, bp, obs.MStoragePoolMisses)
	allocs := testing.AllocsPerRun(400, fetch)
	if got := counter(t, bp, obs.MStoragePoolMisses) - misses; got != 401 {
		t.Fatalf("%d misses, want every one of the 401 fetches to miss", got)
	}
	if allocs != 0 {
		t.Fatalf("a miss into a full pool allocates %v times, want 0", allocs)
	}
	if buffers(bp) != 3 {
		t.Fatalf("pool owns %d buffers, capacity 3", buffers(bp))
	}
}

func TestPoolReusesEvictedBuffer(t *testing.T) {
	dev := NewMemDevice(DefaultDiskCost())
	ids := writePages(t, dev, 2)
	bp := NewBufferPool(dev, 1)
	a, err := bp.Fetch(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	bufA := &a.Payload()[0]
	if err := bp.Unpin(ids[0], false); err != nil {
		t.Fatal(err)
	}
	b, err := bp.Fetch(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if &b.Payload()[0] != bufA {
		t.Fatal("the miss read into a new buffer, not the evicted one")
	}
	if rec, err := b.Get(0); err != nil || rec[0] != 1 {
		t.Fatalf("reused buffer holds %v (%v), want page 1's record", rec, err)
	}
	if err := bp.Unpin(ids[1], false); err != nil {
		t.Fatal(err)
	}
	fetchRecord(t, bp, ids[0], 0)
}

func TestPoolNewPageOnReusedFrameIsFresh(t *testing.T) {
	dev := NewMemDevice(DefaultDiskCost())
	ids := writePages(t, dev, 1)
	bp := NewBufferPool(dev, 1)
	fetchRecord(t, bp, ids[0], 0) // the one frame now holds a used page
	id, p, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	fresh := make([]byte, PageSize)
	NewPage(fresh).Init()
	if !bytes.Equal(p.buf, fresh) {
		t.Fatal("NewPage on a reused frame differs from a freshly initialized page")
	}
	if err := bp.Unpin(id, true); err != nil {
		t.Fatal(err)
	}
	if buffers(bp) != 1 {
		t.Fatalf("pool owns %d buffers, capacity 1", buffers(bp))
	}
}

// A read that fails leaves its frame free, not resident: the pool stays
// within capacity, the page is not cached, and the next Fetch succeeds.
func TestPoolFailedReadLeavesNoFrame(t *testing.T) {
	cases := []struct {
		name string
		cfg  FaultConfig
		want error
		// retry is the page the next Fetch asks for: the flipped page
		// stays corrupt on the device, the transient one reads clean
		// once the fault budget is spent.
		retry int
	}{
		{"bit-flip", FaultConfig{Seed: 3, BitFlipRate: 1, MaxFaults: 1}, ErrCorrupt, 1},
		{"exhausted transient", FaultConfig{Seed: 3, ReadTransientRate: 1, MaxFaults: 4}, ErrTransient, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			inner := NewMemDevice(DefaultDiskCost())
			dev := NewFaultDevice(inner, c.cfg)
			dev.SetDisabled(true)
			ids := writePages(t, inner, 4)
			if c.cfg.BitFlipRate > 0 {
				// Rewrite page 0 through the faulty device: its image
				// lands with one bit flipped.
				buf := make([]byte, PageSize)
				if err := inner.ReadPage(ids[0], buf); err != nil {
					t.Fatal(err)
				}
				dev.SetDisabled(false)
				if err := dev.WritePage(ids[0], buf); err != nil {
					t.Fatal(err)
				}
			}
			bp := NewBufferPool(dev, 2)
			dev.SetDisabled(true)
			fetchRecord(t, bp, ids[2], 2)
			fetchRecord(t, bp, ids[3], 3) // the pool is full
			dev.SetDisabled(false)
			if _, err := bp.Fetch(ids[0]); !errors.Is(err, c.want) {
				t.Fatalf("fetch = %v, want %v", err, c.want)
			}
			if _, ok := bp.frames[ids[0]]; ok {
				t.Fatal("the failed page is resident")
			}
			if buffers(bp) > 2 {
				t.Fatalf("pool owns %d buffers, capacity 2", buffers(bp))
			}
			fetchRecord(t, bp, ids[c.retry], byte(c.retry))
			if buffers(bp) > 2 {
				t.Fatalf("pool owns %d buffers after the retry, capacity 2", buffers(bp))
			}
		})
	}
}
