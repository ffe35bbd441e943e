package exec

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// The kernels below are the finite-differencing algebra of Section 4.2
// in its three directions: each partial state is a set of sufficient
// statistics over one chunk, Merge is the associative combination across
// chunks — Koenig–Paige's f′ lifted from single-observation deltas to
// whole-partition partial states — and Apply takes an update batch into
// a state kept for the life of a view. Folding is serial within a chunk;
// merging happens in ascending chunk order, so a fold's answer depends on
// the grid alone, never on the worker count.

// ErrEmpty reports an aggregate over zero valid observations.
var ErrEmpty = fmt.Errorf("exec: no valid observations")

// Moments is the mergeable partial-aggregate state for the moment and
// extremum kernels: count, missing count, sum, mean and M2 (Welford's
// running second moment), and min/max. The merge follows Chan, Golub &
// LeVeque's pairwise update; KeptMoments.Apply is the same recurrence
// run forward for an insert and backward for a delete.
type Moments struct {
	N       int64 // valid observations
	Missing int64 // invalid observations
	Sum     float64
	Mean    float64
	M2      float64 // Σ(x - mean)²
	Min     float64
	Max     float64
}

// FoldMoments folds one chunk into a fresh partial state: count, sum and
// extremes in one pass, then M2 as stats.Variance's two-pass sum about
// Mean = Sum/N. A column of at most one chunk is therefore the serial
// operators of stats/desc.go bit for bit, and a longer one is its chunks
// merged in grid order (ColumnFold). valid may be nil (all present).
func FoldMoments(xs []float64, valid []bool) Moments {
	var m Moments
	for i, x := range xs {
		if valid != nil && !valid[i] {
			m.Missing++
			continue
		}
		m.N++
		m.Sum += x
		if m.N == 1 || x < m.Min {
			m.Min = x
		}
		if m.N == 1 || x > m.Max {
			m.Max = x
		}
	}
	if m.N == 0 {
		return m
	}
	m.Mean = m.Sum / float64(m.N)
	for i, x := range xs {
		if valid == nil || valid[i] {
			d := x - m.Mean
			m.M2 += d * d
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

// Delta is one change to a column — the update model of Section 4.2:
// Insert adds New, Delete removes Old, and an update is the two composed.
// A view's write of one cell is one Delta: it deletes the value the cell
// held, if any, and inserts the one it gets, if any.
type Delta struct {
	Insert, Delete bool
	Old, New       float64
}

// KeptMoments is the delta form of FoldMoments, as FreqTable.Apply is of
// FoldFreq: Moments kept current under updates for as long as a view
// lives — the one moments state the Summary Database holds per
// attribute. It counts the copies of Min and Max, so deleting a copy
// leaves the extremum standing; deleting the last copy while other
// observations remain loses it (Lost), and a caller that must answer it
// refolds the column — Section 4.2's defeated-extremum rule. Missing
// follows the cell model of Delta: a delete empties a cell, an insert
// fills one.
type KeptMoments struct {
	Moments
	MinCopies, MaxCopies int64
}

// KeepMoments folds xs inline on the chunk grid, as ColumnFold does at
// any pool width, and counts, over the same column, the copies of its
// extremes.
func KeepMoments(xs []float64, valid []bool) KeptMoments {
	return Keep(ColumnMoments(nil, xs, valid, DefaultChunk), xs, valid)
}

// Keep counts the copies of m's extremes over xs, the column m was
// folded from by whichever route.
func Keep(m Moments, xs []float64, valid []bool) KeptMoments {
	k := KeptMoments{Moments: m}
	for i, x := range xs {
		if valid != nil && !valid[i] {
			continue
		}
		if same(x, k.Min) {
			k.MinCopies++
		}
		if same(x, k.Max) {
			k.MaxCopies++
		}
	}
	return k
}

// KeepRuns is Keep over the run column m was folded from: a run holds
// its count copies of its value.
func KeepRuns(m Moments, rc RunColumn) KeptMoments {
	k := KeptMoments{Moments: m}
	for i, x := range rc.Vals {
		if rc.Nulls[i] {
			continue
		}
		if same(x, k.Min) {
			k.MinCopies += rc.Counts[i]
		}
		if same(x, k.Max) {
			k.MaxCopies += rc.Counts[i]
		}
	}
	return k
}

// same is == holding a NaN equal to itself, so the copies of a NaN
// extremum (a column whose first observation is NaN) count like others.
func same(a, b float64) bool { return a == b || a != a && b != b }

// Apply merges an update batch into k in place, in batch order, each
// delta's delete before its insert: an insert is one Welford step, a
// delete the same step run backward. It reports false — k then no longer
// describes the column, and the caller refolds it — at a delete the state
// cannot retract: of a value outside its extremes, or of one that is not
// finite (a NaN or an infinity makes Sum, Mean and M2 what they are until
// it leaves).
func (k *KeptMoments) Apply(batch []Delta) bool {
	for _, d := range batch {
		if d.Delete && !k.retract(d.Old) {
			return false
		}
		if d.Insert {
			k.insert(d.New)
		}
	}
	return true
}

// Lost reports which extremes went with their last copy while other
// observations remained. A lost extremum is still a strict bound on what
// is left, so an insert at or beyond it restores it.
func (k *KeptMoments) Lost() (min, max bool) {
	return k.N > 0 && k.MinCopies == 0, k.N > 0 && k.MaxCopies == 0
}

func (k *KeptMoments) insert(x float64) {
	k.N++
	k.Missing--
	k.Sum += x
	d := x - k.Mean
	k.Mean += d / float64(k.N)
	k.M2 += d * (x - k.Mean)
	switch {
	case k.N == 1 || x < k.Min:
		k.Min, k.MinCopies = x, 1
	case same(x, k.Min):
		k.MinCopies++
	}
	switch {
	case k.N == 1 || x > k.Max:
		k.Max, k.MaxCopies = x, 1
	case same(x, k.Max):
		k.MaxCopies++
	}
}

func (k *KeptMoments) retract(x float64) bool {
	if k.N == 0 || x-x != 0 || x < k.Min || x > k.Max ||
		x == k.Min && k.MinCopies == 0 || x == k.Max && k.MaxCopies == 0 {
		return false
	}
	if x == k.Min {
		k.MinCopies--
	}
	if x == k.Max {
		k.MaxCopies--
	}
	if k.N == 1 {
		// The last observation leaves no rounding residue behind.
		*k = KeptMoments{Moments: Moments{Missing: k.Missing + 1}}
		return true
	}
	k.N--
	k.Missing++
	k.Sum -= x
	d := x - k.Mean
	k.Mean -= d / float64(k.N)
	k.M2 -= d * (x - k.Mean)
	return true
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

// MeanValue returns the mean, erroring on an empty state.
func (m Moments) MeanValue() (float64, error) {
	if m.N == 0 {
		return 0, ErrEmpty
	}
	return m.Mean, nil
}

// ColumnMoments folds a whole column through the pool: FoldMoments per
// chunk, then an ordered MergeMoments reduction.
func ColumnMoments(p *Pool, xs []float64, valid []bool, chunk int) Moments {
	m, _ := ColumnFold(p, xs, valid, chunk, true, false)
	return m
}

// inline runs the chunks of a fold given no pool on the caller's
// goroutine.
var inline = New(1)

// ColumnFold folds a whole column into the state families asked for —
// moments, a frequency table, or both — in one pass through the pool:
// each chunk of the grid folds every family asked, the moments merge in
// chunk order and the chunk tables through MergeFreq, so the answer is
// the same at every pool width. A nil pool runs the same chunks inline.
// A family not asked comes back zero. The chunks one worker tabulates
// share one chunk-sized sort scratch, which goes with the fold.
func ColumnFold(p *Pool, xs []float64, valid []bool, chunk int, moments, freq bool) (Moments, FreqTable) {
	ranges := Chunks(len(xs), chunk)
	if len(ranges) == 0 {
		return Moments{}, FreqTable{}
	}
	if p == nil {
		p = inline
	}
	ms := make([]Moments, len(ranges))
	var fs []FreqTable
	var scratch chan *sorter
	if freq {
		fs = make([]FreqTable, len(ranges))
		// A free list of one sort scratch per worker the run fans out to.
		scratch = make(chan *sorter, p.Fanout(len(ranges)))
		for range cap(scratch) {
			scratch <- new(sorter)
		}
	}
	// Slicing can't fail; Run's error path is unused here.
	//lint:allow error-flow the range kernel below never returns an error
	_ = p.RunRanges(ranges, func(c int, r Range) error {
		xs, valid := xs[r.Lo:r.Hi], valid
		if valid != nil {
			valid = valid[r.Lo:r.Hi]
		}
		if moments {
			ms[c] = FoldMoments(xs, valid)
		}
		if freq {
			s := <-scratch
			fs[c] = s.fold(xs, valid)
			scratch <- s
		}
		return nil
	})
	m := ms[0]
	for _, part := range ms[1:] {
		m = MergeMoments(m, part)
	}
	if !freq {
		return m, FreqTable{}
	}
	return m, MergeFreq(fs)
}

// FreqTable is the frequency state — a frequency table is a compressed
// sort (Section 4.2): the distinct values ascending in cmp.Compare order
// with the positive multiplicity of each. It is what a fold tabulates,
// what chunks merge, what the freq-family finalizers read and what the
// Summary Database keeps current under updates. A table a fold, a merge
// or an update builds holds every NaN as one value, math.NaN(), before
// every number, and every zero as +0.
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

// key maps x to a uint64 whose order is cmp.Compare's over the values a
// table holds: a number's bits gain the sign bit when it is positive and
// are inverted when it is negative, every NaN keys as 0, below −Inf, and
// −0 keys as +0.
func key(x float64) uint64 {
	switch {
	case x != x:
		return 0
	case x == 0:
		return 1 << 63
	}
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// value inverts key: the value a table holds for x is value(key(x)).
func value(k uint64) float64 {
	if k == 0 {
		return math.NaN()
	}
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
}

// sorter is one worker's sort scratch: a chunk's keys, the buffer the
// radix passes scatter them into, and the digit counters.
type sorter struct {
	keys, tmp []uint64
	at        []uint32
}

// FoldFreq tabulates one chunk: its valid values' keys, radix-sorted and
// run-length-encoded.
func FoldFreq(xs []float64, valid []bool) FreqTable {
	return new(sorter).fold(xs, valid)
}

// maxRadixBits bounds the width of one radix digit: 2^13 counters fill
// an L1 cache.
const maxRadixBits = 13

// fold is FoldFreq on s's scratch, grown to the chunk as needed. The
// keys sort least significant digit first, one stable counting pass per
// digit. A digit has at most half as many counters as the chunk has
// rows, and at most 2^maxRadixBits; a digit no key varies in is skipped,
// so a chunk of small integer codes, whose keys differ in a handful of
// exponent and leading mantissa bits, sorts in two passes, a chunk of a
// float measure in six. The lowest digit is counted as the keys are
// made, and each pass but the last counts the next digit as it scatters.
func (s *sorter) fold(xs []float64, valid []bool) FreqTable {
	if cap(s.keys) < len(xs) {
		s.keys, s.tmp = make([]uint64, len(xs)), make([]uint64, len(xs))
	}
	width := min(max(bits.Len(uint(len(xs)))-2, 8), maxRadixBits)
	mask := uint64(1)<<width - 1
	if len(s.at) < 2<<width {
		s.at = make([]uint32, 2<<width)
	}
	at, next := s.at[:mask+1], s.at[mask+1:2*(mask+1)]
	clear(at)
	keys := s.keys[:len(xs)]
	n, or, and := 0, uint64(0), ^uint64(0)
	for i, x := range xs {
		if valid != nil && !valid[i] {
			continue
		}
		k := key(x)
		keys[n] = k
		n++
		or, and = or|k, and&k
		at[k&mask]++
	}
	if n == 0 {
		return FreqTable{}
	}
	keys, tmp := keys[:n], s.tmp[:n]
	varies := or &^ and
	// skip returns the first digit from shift up that some key varies in,
	// 64 when none is left.
	skip := func(shift int) int {
		for shift < 64 && varies>>shift&mask == 0 {
			shift += width
		}
		return shift
	}
	shift := skip(0)
	if shift > 0 && shift < 64 {
		clear(at)
		for _, k := range keys {
			at[k>>shift&mask]++
		}
	}
	for shift < 64 {
		sum := uint32(0)
		for d, c := range at {
			at[d], sum = sum, sum+c
		}
		following := skip(shift + width)
		if following >= 64 {
			for _, k := range keys {
				d := k >> shift & mask
				tmp[at[d]] = k
				at[d]++
			}
			keys, tmp = tmp, keys
			break
		}
		clear(next)
		for _, k := range keys {
			d := k >> shift & mask
			tmp[at[d]] = k
			at[d]++
			next[k>>following&mask]++
		}
		keys, tmp = tmp, keys
		at, next, shift = next, at, following
	}
	// Run-length encode in place, branch-free: the distinct keys to the
	// front of keys, their counts to the front of tmp.
	d, last := 0, ^keys[0]
	for _, k := range keys {
		step := 0
		if k != last {
			step = 1
		}
		d += step
		keys[d-1], tmp[d-1] = k, tmp[d-1]&(uint64(step)-1)+1
		last = k
	}
	t := FreqTable{Values: make([]float64, d), Counts: make([]int64, d)}
	for i := range t.Values {
		t.Values[i], t.Counts[i] = value(keys[i]), int64(tmp[i])
	}
	return t
}

// MergeFreq merges tables, counts added, so the merge is exact and a
// column's table is the same however it was cut. The tables merge in
// the order given, pairwise as a balanced tree — each level one pass
// over every value held, not one pass per table — ping-ponging between
// two buffers sized by the tables' summed length; the table returned is
// sized to its own values.
func MergeFreq(parts []FreqTable) FreqTable {
	if len(parts) == 1 {
		return parts[0]
	}
	total := 0
	for _, t := range parts {
		total += len(t.Values)
	}
	if total == 0 {
		return FreqTable{}
	}
	var buf [2]FreqTable
	for i := range buf {
		buf[i] = FreqTable{Values: make([]float64, total), Counts: make([]int64, total)}
	}
	level := slices.Clone(parts)
	for l := 0; len(level) > 1; l++ {
		dst, at := buf[l%2], 0
		next := level[:0]
		for i := 0; i < len(level); i += 2 {
			var n int
			if i+1 < len(level) {
				n = mergeInto(dst.Values[at:], dst.Counts[at:], level[i], level[i+1])
			} else {
				n = copy(dst.Values[at:], level[i].Values)
				copy(dst.Counts[at:], level[i].Counts)
			}
			next = append(next, FreqTable{Values: dst.Values[at : at+n : at+n], Counts: dst.Counts[at : at+n : at+n]})
			at += n
		}
		level = next
	}
	t := level[0]
	if len(t.Values) < total {
		t = FreqTable{
			Values: append(make([]float64, 0, len(t.Values)), t.Values...),
			Counts: append(make([]int64, 0, len(t.Counts)), t.Counts...),
		}
	}
	return t
}

// mergeInto writes a and b merged into vs and cs and returns the merged
// length. A NaN is first in a table that holds one, so after it the
// values compare by <.
func mergeInto(vs []float64, cs []int64, a, b FreqTable) int {
	i, j, k := 0, 0, 0
	aNaN := len(a.Values) > 0 && a.Values[0] != a.Values[0]
	bNaN := len(b.Values) > 0 && b.Values[0] != b.Values[0]
	if aNaN || bNaN {
		vs[0], cs[0], k = math.NaN(), 0, 1
		if aNaN {
			cs[0], i = cs[0]+a.Counts[0], 1
		}
		if bNaN {
			cs[0], j = cs[0]+b.Counts[0], 1
		}
	}
	// Branch-free: which side the next value comes from is data, not a
	// prediction, so the smaller value is selected by masking its bits.
	for i < len(a.Values) && j < len(b.Values) {
		x, y := a.Values[i], b.Values[j]
		var ta, tb int
		if x <= y {
			ta = 1
		}
		if y <= x {
			tb = 1
		}
		xb, yb := math.Float64bits(x), math.Float64bits(y)
		vs[k] = math.Float64frombits(yb ^ (xb^yb)&-uint64(ta))
		cs[k] = a.Counts[i]&-int64(ta) + b.Counts[j]&-int64(tb)
		i, j, k = i+ta, j+tb, k+1
	}
	copy(cs[k:], a.Counts[i:])
	k += copy(vs[k:], a.Values[i:])
	copy(cs[k:], b.Counts[j:])
	k += copy(vs[k:], b.Values[j:])
	return k
}

// coalesce sorts batch by value in place, each value as a table holds
// it, and sums the changes of equal values, dropping those that cancel.
func coalesce(batch []Change) []Change {
	for i := range batch {
		batch[i].Value = value(key(batch[i].Value))
	}
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
// the delta form of FoldFreq — sorting batch in place and holding each
// value it inserts as a fold would: every NaN as math.NaN() and −0 as
// +0. It reports false,
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
