package exec

import (
	"fmt"
	"math"
	"sort"
)

// The kernels below are the parallel form of the finite-differencing
// algebra of internal/incr: each partial state is a set of sufficient
// statistics over one chunk, and Merge is the associative combination
// across chunks — Koenig–Paige's f′ lifted from single-observation
// deltas to whole-partition partial states. Folding is serial within a
// chunk; merging happens in ascending chunk order so results are
// deterministic for any worker count.

// ErrEmpty reports an aggregate over zero valid observations.
var ErrEmpty = fmt.Errorf("exec: no valid observations")

// Moments is the mergeable partial-aggregate state for the moment and
// extremum kernels: count, missing count, sum, mean and M2 (Welford's
// running second moment), and min/max. The merge follows Chan, Golub &
// LeVeque's pairwise update, the parallel analogue of incr.VarianceM's
// (n, Σx, Σx²) algebra with better cancellation behavior.
type Moments struct {
	N       int64 // valid observations
	Missing int64 // invalid observations
	Sum     float64
	Mean    float64
	M2      float64 // Σ(x - mean)²
	Min     float64
	Max     float64
}

// FoldMoments folds one chunk serially into a fresh partial state.
// valid may be nil (all present).
func FoldMoments(xs []float64, valid []bool) Moments {
	var m Moments
	for i, x := range xs {
		if valid != nil && !valid[i] {
			m.Missing++
			continue
		}
		m.N++
		m.Sum += x
		d := x - m.Mean
		m.Mean += d / float64(m.N)
		m.M2 += d * (x - m.Mean)
		if m.N == 1 || x < m.Min {
			m.Min = x
		}
		if m.N == 1 || x > m.Max {
			m.Max = x
		}
	}
	return m
}

// MergeMoments combines two partial states. It is associative up to
// floating-point rounding; callers merge in chunk order for determinism.
func MergeMoments(a, b Moments) Moments {
	if a.N == 0 {
		b.Missing += a.Missing
		return b
	}
	if b.N == 0 {
		a.Missing += b.Missing
		return a
	}
	var out Moments
	out.N = a.N + b.N
	out.Missing = a.Missing + b.Missing
	out.Sum = a.Sum + b.Sum
	d := b.Mean - a.Mean
	fn := float64(out.N)
	out.Mean = a.Mean + d*float64(b.N)/fn
	out.M2 = a.M2 + b.M2 + d*d*float64(a.N)*float64(b.N)/fn
	out.Min = a.Min
	if b.Min < out.Min {
		out.Min = b.Min
	}
	out.Max = a.Max
	if b.Max > out.Max {
		out.Max = b.Max
	}
	return out
}

// Variance returns the sample variance (divisor n-1).
func (m Moments) Variance() (float64, error) {
	if m.N < 2 {
		return 0, fmt.Errorf("exec: variance needs >= 2 observations, have %d", m.N)
	}
	v := m.M2 / float64(m.N-1)
	if v < 0 {
		v = 0 // guard tiny negative from cancellation
	}
	return v, nil
}

// SD returns the sample standard deviation.
func (m Moments) SD() (float64, error) {
	v, err := m.Variance()
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// MeanValue returns the mean, erroring on an empty state.
func (m Moments) MeanValue() (float64, error) {
	if m.N == 0 {
		return 0, ErrEmpty
	}
	return m.Mean, nil
}

// ColumnMoments folds a whole column through the pool: chunk-parallel
// FoldMoments, then an ordered MergeMoments reduction.
func ColumnMoments(p *Pool, xs []float64, valid []bool, chunk int) Moments {
	ranges := Chunks(len(xs), chunk)
	if len(ranges) <= 1 || p.Workers() <= 1 {
		return FoldMoments(xs, valid)
	}
	parts := make([]Moments, len(ranges))
	// Slicing can't fail; Run's error path is unused here.
	//lint:allow error-flow the range kernel below never returns an error
	_ = p.RunRanges(ranges, func(c int, r Range) error {
		if valid == nil {
			parts[c] = FoldMoments(xs[r.Lo:r.Hi], nil)
		} else {
			parts[c] = FoldMoments(xs[r.Lo:r.Hi], valid[r.Lo:r.Hi])
		}
		return nil
	})
	out := parts[0]
	for _, pt := range parts[1:] {
		out = MergeMoments(out, pt)
	}
	return out
}

// Freq is the mergeable frequency-table state: value -> multiplicity of
// the valid observations. It backs the parallel frequency, mode, unique
// and quantile kernels (a frequency table is a compressed sort).
type Freq map[float64]int64

// FoldFreq tabulates one chunk.
func FoldFreq(xs []float64, valid []bool) Freq {
	f := make(Freq)
	for i, x := range xs {
		if valid != nil && !valid[i] {
			continue
		}
		f[x]++
	}
	return f
}

// Merge folds src into f and returns f. Counts add, so the merge is
// exact and order-insensitive.
func (f Freq) Merge(src Freq) Freq {
	for v, c := range src {
		f[v] += c
	}
	return f
}

// Sorted returns the distinct values ascending with their counts.
func (f Freq) Sorted() (values []float64, counts []int64) {
	values = make([]float64, 0, len(f))
	for v := range f {
		values = append(values, v)
	}
	sort.Float64s(values)
	counts = make([]int64, len(values))
	for i, v := range values {
		counts[i] = f[v]
	}
	return values, counts
}

// ColumnFreq tabulates a whole column through the pool: chunk-parallel
// FoldFreq, merged in chunk order (the merged multiset is identical for
// any chunking, so this kernel is bit-exact vs the serial path).
func ColumnFreq(p *Pool, xs []float64, valid []bool, chunk int) Freq {
	ranges := Chunks(len(xs), chunk)
	if len(ranges) <= 1 || p.Workers() <= 1 {
		return FoldFreq(xs, valid)
	}
	parts := make([]Freq, len(ranges))
	//lint:allow error-flow the range kernel below never returns an error
	_ = p.RunRanges(ranges, func(c int, r Range) error {
		if valid == nil {
			parts[c] = FoldFreq(xs[r.Lo:r.Hi], nil)
		} else {
			parts[c] = FoldFreq(xs[r.Lo:r.Hi], valid[r.Lo:r.Hi])
		}
		return nil
	})
	out := parts[0]
	for _, pt := range parts[1:] {
		out = out.Merge(pt)
	}
	return out
}
