package exec

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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

// Cardinality is the number of distinct values — len(f.Table().Values)
// without the sort: every NaN key after the first is the same value.
func (f Freq) Cardinality() int {
	n, nans := len(f), 0
	for v := range f {
		if v != v {
			nans++
		}
	}
	if nans > 1 {
		n -= nans - 1
	}
	return n
}

// FreqTable is a frequency table in sorted form — the compressed sort
// the freq-family finalizers read, and the state the Summary Database
// keeps current under updates: the distinct values ascending in
// cmp.Compare order, so a NaN is one value (before every number), and
// the positive multiplicity of each.
type FreqTable struct {
	Values []float64
	Counts []int64
}

// Change is one value's signed multiplicity change: N copies gained, or
// lost when negative.
type Change struct {
	Value float64
	N     int64
}

// Table sorts f. A map stores every NaN apart, under a key no lookup
// can find again, so ranging sums them into the one value the table
// holds (slices.Sort puts it first, where cmp.Compare does); every other
// count is read back by key.
func (f Freq) Table() FreqTable {
	values := make([]float64, 0, len(f))
	var nans int64
	for v, c := range f {
		if v != v {
			if nans == 0 {
				values = append(values, v)
			}
			nans += c
			continue
		}
		values = append(values, v)
	}
	slices.Sort(values)
	counts := make([]int64, len(values))
	for i, v := range values {
		counts[i] = f[v]
	}
	if nans > 0 {
		counts[0] = nans
	}
	return FreqTable{Values: values, Counts: counts}
}

// coalesce sorts batch by value in place and sums the changes of equal
// values, dropping those that cancel.
func coalesce(batch []Change) []Change {
	slices.SortFunc(batch, func(a, b Change) int { return cmp.Compare(a.Value, b.Value) })
	out := batch[:0]
	for i := 0; i < len(batch); {
		ch := batch[i]
		for i++; i < len(batch) && cmp.Compare(batch[i].Value, ch.Value) == 0; i++ {
			ch.N += batch[i].N
		}
		if ch.N != 0 {
			out = append(out, ch)
		}
	}
	return out
}

// Apply merges an update batch into t in place — O(d log d + distinct),
// the delta form of FoldFreq — sorting batch in place. It reports false,
// leaving t as it was, when the batch takes away a copy t does not hold:
// the table no longer describes the column, and the caller drops it.
func (t *FreqTable) Apply(batch []Change) bool {
	batch = coalesce(batch)
	// Locate every change before anything moves: at[k] is where the value
	// sits in t.Values, or ^(where it would go), and batch[k].N becomes the
	// multiplicity it ends with.
	at := make([]int, len(batch))
	i := 0
	for k := range batch {
		ch := &batch[k]
		// The changes ascend: gallop on from the last one's place.
		step := 1
		for ; i+step < len(t.Values) && cmp.Compare(t.Values[i+step], ch.Value) < 0; step *= 2 {
			i += step
		}
		below, held := slices.BinarySearchFunc(t.Values[i:min(i+step+1, len(t.Values))], ch.Value, cmp.Compare[float64])
		i += below
		at[k] = ^i
		if held {
			at[k] = i
			ch.N += t.Counts[i]
		}
		if ch.N < 0 {
			return false
		}
	}
	// Forward: a held value takes its new count or, left with none, is
	// closed over; a new value's place is restated in the closed-up table
	// and the value queued at the front of batch.
	r, w := 0, 0
	keep := func(to int) {
		if w != r {
			copy(t.Values[w:], t.Values[r:to])
			copy(t.Counts[w:], t.Counts[r:to])
		}
		w, r = w+to-r, to
	}
	fresh := 0
	for k, ch := range batch {
		if at[k] < 0 {
			keep(^at[k])
			batch[fresh], at[fresh] = ch, w
			fresh++
			continue
		}
		keep(at[k])
		if ch.N > 0 {
			t.Values[w], t.Counts[w] = t.Values[r], ch.N
			w++
		}
		r++
	}
	keep(len(t.Values))
	// The table lives as long as its view: it is re-made at its size when
	// it outgrows its room, or when a column that keeps losing values has
	// left a quarter of it unused.
	end := w + fresh
	if room := min(cap(t.Values), cap(t.Counts)) - end; room < 0 || room > end/4 {
		t.Values = append(make([]float64, 0, end), t.Values[:w]...)
		t.Counts = append(make([]int64, 0, end), t.Counts[:w]...)
	}
	t.Values, t.Counts = t.Values[:end], t.Counts[:end]
	// Backward: open a gap for each new value, the last one first.
	for j, src := fresh-1, w; j >= 0; j-- {
		end -= src - at[j]
		copy(t.Values[end:], t.Values[at[j]:src])
		copy(t.Counts[end:], t.Counts[at[j]:src])
		src = at[j]
		end--
		t.Values[end], t.Counts[end] = batch[j].Value, batch[j].N
	}
	return true
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
