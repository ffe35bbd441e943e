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

// TestFreqFinalizerErrors: the frequency-table finalizers keep the serial
// error semantics — the same sentinel on an empty table, the same
// quantile range check.
func TestFreqFinalizerErrors(t *testing.T) {
	if _, err := ModeFreq(nil, nil); err != ErrNoData {
		t.Errorf("ModeFreq(empty) = %v, want ErrNoData", err)
	}
	if _, err := QuantileFreq(nil, nil, 0.5); err != ErrNoData {
		t.Errorf("QuantileFreq(empty) = %v, want ErrNoData", err)
	}
	if _, err := QuantileFreq([]float64{5}, []int64{1}, 1.5); err == nil {
		t.Error("out-of-range quantile accepted")
	}
}
