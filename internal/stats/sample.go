package stats

import (
	"fmt"
	//lint:allow determinism every sampler takes an explicit seed, so draws are reproducible by construction
	"math/rand"
	"sort"

	"statdb/internal/dataset"
)

// Sampling supports the exploratory shortcut of Section 2.2: "the
// statistician may base this preliminary analysis on a set of sample
// records drawn at random from the data set". All samplers take an
// explicit seed so analyses are reproducible.

// SampleIndices draws k distinct row indices from n by reservoir
// sampling, returned in ascending order (a single forward pass, as a
// tape- or scan-based sampler must be).
func SampleIndices(n, k int, seed int64) ([]int, error) {
	if k < 0 {
		return nil, fmt.Errorf("stats: negative sample size %d", k)
	}
	if k > n {
		k = n
	}
	rng := rand.New(rand.NewSource(seed))
	res := make([]int, k)
	for i := 0; i < k; i++ {
		res[i] = i
	}
	for i := k; i < n; i++ {
		j := rng.Intn(i + 1)
		if j < k {
			res[j] = i
		}
	}
	// Reservoir order is arbitrary; sort for deterministic, scan-friendly
	// output.
	sort.Ints(res)
	return res, nil
}

// SampleDataset returns a new data set holding k randomly chosen rows of
// ds in original order.
func SampleDataset(ds *dataset.Dataset, k int, seed int64) (*dataset.Dataset, error) {
	idx, err := SampleIndices(ds.Rows(), k, seed)
	if err != nil {
		return nil, err
	}
	return ds.Take(ds.Schema(), nil, idx)
}

// SampleValues returns k randomly chosen valid observations of xs.
func SampleValues(xs []float64, valid []bool, k int, seed int64) ([]float64, error) {
	vals := collect(xs, valid)
	idx, err := SampleIndices(len(vals), k, seed)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = vals[j]
	}
	return out, nil
}
