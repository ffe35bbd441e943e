package exec

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestChunks(t *testing.T) {
	cases := []struct {
		n, size int
		want    []Range
	}{
		{0, 10, nil},
		{5, 10, []Range{{0, 5}}},
		{10, 5, []Range{{0, 5}, {5, 10}}},
		{11, 5, []Range{{0, 5}, {5, 10}, {10, 11}}},
	}
	for _, c := range cases {
		got := Chunks(c.n, c.size)
		if len(got) != len(c.want) {
			t.Fatalf("Chunks(%d,%d) = %v, want %v", c.n, c.size, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Chunks(%d,%d)[%d] = %v, want %v", c.n, c.size, i, got[i], c.want[i])
			}
		}
	}
	if got := Chunks(10, 0); len(got) != 1 || got[0] != (Range{0, 10}) {
		t.Errorf("Chunks(10,0) with default chunk = %v", got)
	}
}

func TestChunksIndependentOfWorkers(t *testing.T) {
	// The determinism contract: boundaries depend only on (n, size).
	a := Chunks(100000, 4096)
	b := Chunks(100000, 4096)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chunk %d differs between calls", i)
		}
	}
}

func TestSerialRunsInlineInOrder(t *testing.T) {
	var order []int
	err := New(1).Run(10, 3, func(c int, r Range) error {
		order = append(order, c) // safe: serial path is inline
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range order {
		if c != i {
			t.Fatalf("serial chunk order %v", order)
		}
	}
}

func TestParallelCoversEveryChunkOnce(t *testing.T) {
	const n, chunk = 100003, 977
	want := len(Chunks(n, chunk))
	hits := make([]atomic.Int64, want)
	var cells atomic.Int64
	err := New(8).Run(n, chunk, func(c int, r Range) error {
		hits[c].Add(1)
		cells.Add(int64(r.Len()))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for c := range hits {
		if got := hits[c].Load(); got != 1 {
			t.Errorf("chunk %d run %d times", c, got)
		}
	}
	if cells.Load() != n {
		t.Errorf("covered %d cells, want %d", cells.Load(), n)
	}
}

func TestRunErrorIsLowestChunk(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		err := p.Run(100, 10, func(c int, r Range) error {
			if c == 7 || c == 3 {
				return fmt.Errorf("chunk %d failed", c)
			}
			return nil
		})
		if err == nil || err.Error() != "chunk 3 failed" {
			t.Errorf("workers=%d: err = %v, want chunk 3's error", workers, err)
		}
	}
}

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	if New(0).Workers() < 1 {
		t.Fatal("New(0) must have at least one worker")
	}
	if got := New(6).Workers(); got != 6 {
		t.Fatalf("New(6).Workers() = %d", got)
	}
}

func TestCostModelShape(t *testing.T) {
	c := DefaultCost()
	// A 4-worker whole-column fold over >= 100k rows must model at least
	// the 2x speedup E13's acceptance bar demands.
	n := 102400
	serial := c.SerialTicks(n)
	par := c.ParallelTicks(n, DefaultChunk, 4)
	if par <= 0 || serial <= 0 {
		t.Fatal("non-positive ticks")
	}
	if speedup := float64(serial) / float64(par); speedup < 2 {
		t.Fatalf("modelled speedup %.2f < 2 at n=%d workers=4", speedup, n)
	}
	// Fan-out must lose below the crossover: tiny columns favor serial.
	small := 512
	if c.ParallelTicks(small, DefaultChunk, 4) <= c.SerialTicks(small) {
		t.Fatal("fan-out overhead should lose on tiny columns")
	}
	// One worker is exactly the serial cost.
	if c.ParallelTicks(n, DefaultChunk, 1) != serial {
		t.Fatal("workers=1 must cost the serial ticks")
	}
	// More workers never cost more on the critical path for large n.
	if c.ParallelTicks(n, DefaultChunk, 8) >= c.ParallelTicks(n, DefaultChunk, 2) {
		t.Fatal("8 workers should beat 2 on a large column")
	}
}
