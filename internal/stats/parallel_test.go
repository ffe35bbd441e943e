package stats

import (
	"math"
	"math/rand"
	"testing"

	"statdb/internal/exec"
)

// parallelColumn builds a deterministic test column with duplicates
// (quantized values) and ~5% missing, so mode/unique/frequencies are
// exercised meaningfully.
func parallelColumn(n int, seed int64) ([]float64, []bool) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	valid := make([]bool, n)
	for i := range xs {
		xs[i] = math.Floor(rng.NormFloat64()*50) / 2
		valid[i] = rng.Intn(20) != 0
	}
	return xs, valid
}

func relClose(a, b, rel float64) bool {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= rel*scale
}

// TestSummarizeChunksMatchesSummarize: the determinism contract. Order
// statistics, extrema and counts must be bit-identical; mean and SD
// agree to relative 1e-12 (the parallel merge groups sums differently).
func TestSummarizeChunksMatchesSummarize(t *testing.T) {
	xs, valid := parallelColumn(30011, 42)
	serial, err := Summarize(xs, valid)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		par, err := SummarizeChunks(exec.New(workers), xs, valid, 1024)
		if err != nil {
			t.Fatal(err)
		}
		if par.N != serial.N || par.Missing != serial.Missing {
			t.Errorf("workers=%d: counts (%d,%d) != (%d,%d)", workers, par.N, par.Missing, serial.N, serial.Missing)
		}
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"Min", par.Min, serial.Min}, {"Max", par.Max, serial.Max},
			{"Median", par.Median, serial.Median},
			{"Q1", par.Q1, serial.Q1}, {"Q3", par.Q3, serial.Q3},
			{"Mode", par.Mode, serial.Mode},
		} {
			if c.got != c.want {
				t.Errorf("workers=%d: %s = %v, serial %v (must be bit-identical)", workers, c.name, c.got, c.want)
			}
		}
		if par.Unique != serial.Unique {
			t.Errorf("workers=%d: Unique = %d, serial %d", workers, par.Unique, serial.Unique)
		}
		if !relClose(par.Mean, serial.Mean, 1e-12) {
			t.Errorf("workers=%d: Mean = %v, serial %v", workers, par.Mean, serial.Mean)
		}
		if !relClose(par.SD, serial.SD, 1e-10) {
			t.Errorf("workers=%d: SD = %v, serial %v", workers, par.SD, serial.SD)
		}
	}
}

// TestSummarizeChunksDeterministic: same data, same chunk size — the
// whole Summary is bit-identical whatever the worker count.
func TestSummarizeChunksDeterministic(t *testing.T) {
	xs, valid := parallelColumn(20219, 9)
	base, err := SummarizeChunks(exec.New(2), xs, valid, 512)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{3, 4, 8} {
		s, err := SummarizeChunks(exec.New(workers), xs, valid, 512)
		if err != nil {
			t.Fatal(err)
		}
		if s != base {
			t.Fatalf("workers=%d summary %+v != workers=2 %+v", workers, s, base)
		}
	}
}

// TestSummarizeChunksSerialFallback: one worker or one chunk must take
// the exact Summarize path, preserving pre-engine behavior bit for bit
// (including its two-pass mean).
func TestSummarizeChunksSerialFallback(t *testing.T) {
	xs, valid := parallelColumn(5000, 3)
	serial, err := Summarize(xs, valid)
	if err != nil {
		t.Fatal(err)
	}
	one, err := SummarizeChunks(exec.New(1), xs, valid, 512)
	if err != nil {
		t.Fatal(err)
	}
	if one != serial {
		t.Fatalf("workers=1: %+v != serial %+v", one, serial)
	}
	wide, err := SummarizeChunks(exec.New(4), xs, valid, len(xs))
	if err != nil {
		t.Fatal(err)
	}
	if wide != serial {
		t.Fatalf("single chunk: %+v != serial %+v", wide, serial)
	}
	if _, err := SummarizeChunks(exec.New(4), make([]float64, 9000), make([]bool, 9000), 512); err != ErrNoData {
		t.Fatalf("all-missing column: err = %v, want ErrNoData", err)
	}
}

func TestQuantileChunksBitExact(t *testing.T) {
	xs, valid := parallelColumn(10007, 23)
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.999, 1} {
		want, err := Quantile(xs, valid, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := QuantileChunks(exec.New(4), xs, valid, 512, q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("q=%g: parallel %v != serial %v (must be bit-identical)", q, got, want)
		}
	}
	if _, err := QuantileChunks(exec.New(4), xs, valid, 512, 1.5); err == nil {
		t.Error("out-of-range p should error")
	}
}
