// Package medwin implements the median histogram-window technique of
// Section 4.2: functions like median cannot be finite-differenced because
// they depend on the ordering of the data, so the paper proposes storing,
// in the Summary Database, "a histogram of some number, say 100, of
// values around the median" with a pointer that slides as updates arrive.
// When the pointer runs off the stored window, a new window is generated
// with a single pass over the data.
//
// The window generalizes to any quantile; the Summary Database keeps one
// per cached median, q1 or q3.
package medwin

import (
	"cmp"
	"fmt"
	"math/bits"
	"sort"

	"statdb/internal/obs"
)

// Window maintains an order statistic (by default the median) of a
// multiset of values under inserts and deletes, keeping only a bounded
// run of consecutive order statistics ("the window") plus counts of how
// many values lie below and above it.
type Window struct {
	p        float64   // tracked quantile in (0,1); 0.5 for the median
	capacity int       // target window width (the paper's "some number, say 100")
	below    int       // values strictly left of window
	above    int       // values strictly right of window
	window   []float64 // sorted consecutive order statistics
	rebuilds int       // completed regeneration passes
	slides   int       // updates absorbed without regeneration
	// Optional system-wide counters mirroring slides/rebuilds
	// (medwin.* families); nil no-ops.
	cSlides, cRebuilds *obs.Counter
	// degenerate marks a window that emptied while values remain: the
	// stored order statistics are gone and only N is trustworthy until
	// the next Rebuild.
	degenerate bool
}

// NewMedian builds a median window of the given capacity from the valid
// observations.
func NewMedian(xs []float64, valid []bool, capacity int) (*Window, error) {
	return NewQuantile(xs, valid, 0.5, capacity)
}

// NewQuantile builds a window tracking the p-quantile.
func NewQuantile(xs []float64, valid []bool, p float64, capacity int) (*Window, error) {
	if p <= 0 || p >= 1 {
		return nil, fmt.Errorf("medwin: quantile p=%g out of (0,1)", p)
	}
	if capacity < 3 {
		return nil, fmt.Errorf("medwin: capacity %d too small (need >= 3)", capacity)
	}
	w := &Window{p: p, capacity: capacity}
	w.Rebuild(xs, valid)
	w.rebuilds = 0 // the initial build is not a regeneration
	return w, nil
}

// N returns the total number of tracked values.
func (w *Window) N() int { return w.below + len(w.window) + w.above }

// Rebuilds returns how many regeneration passes have run.
func (w *Window) Rebuilds() int { return w.rebuilds }

// Slides returns how many updates were absorbed without regeneration.
func (w *Window) Slides() int { return w.slides }

// targetIdx returns the order-statistic indices (lo, hi) the quantile
// interpolates between for n values (type-7).
func (w *Window) targetIdx(n int) (int, int) {
	if n <= 1 {
		return 0, 0
	}
	h := w.p * float64(n-1)
	lo := int(h)
	if float64(lo) == h || lo >= n-1 {
		return lo, lo
	}
	return lo, lo + 1
}

// NeedsRebuild reports whether the pointer has run off the window: the
// order statistics the quantile needs are no longer stored.
func (w *Window) NeedsRebuild() bool {
	n := w.N()
	if n == 0 {
		return false
	}
	if w.degenerate || len(w.window) == 0 {
		return true
	}
	lo, hi := w.targetIdx(n)
	return lo < w.below || hi >= w.below+len(w.window)
}

// Value returns the tracked quantile, interpolated like stats.Quantile.
// It fails if the window needs a rebuild or holds no values.
func (w *Window) Value() (float64, error) {
	n := w.N()
	if n == 0 {
		return 0, fmt.Errorf("medwin: no observations")
	}
	if w.NeedsRebuild() {
		return 0, fmt.Errorf("medwin: pointer ran off the window; rebuild required")
	}
	lo, hi := w.targetIdx(n)
	a := w.window[lo-w.below]
	if hi == lo {
		return a, nil
	}
	b := w.window[hi-w.below]
	h := w.p * float64(n-1)
	frac := h - float64(lo)
	return a + frac*(b-a), nil
}

// SetCounters mirrors the window's slide/rebuild activity into
// system-wide counters (the obs medwin.* families). Either may be nil.
func (w *Window) SetCounters(slides, rebuilds *obs.Counter) {
	w.cSlides, w.cRebuilds = slides, rebuilds
}

// Insert records a new value. O(log window) plus a bounded shift.
func (w *Window) Insert(x float64) {
	w.slides++
	w.cSlides.Inc()
	if w.degenerate {
		w.above++ // only N matters until the rebuild
		return
	}
	if len(w.window) == 0 {
		if w.below+w.above > 0 {
			// No stored order statistics to place x against.
			w.degenerate = true
			w.above++
			return
		}
		w.window = append(w.window, x)
		return
	}
	switch {
	case x < w.window[0]:
		w.below++
	case x > w.window[len(w.window)-1]:
		w.above++
	default:
		i := sort.SearchFloat64s(w.window, x)
		w.window = append(w.window, 0)
		copy(w.window[i+1:], w.window[i:])
		w.window[i] = x
		w.trim()
	}
}

// Delete removes one copy of x, which must be present in the tracked
// multiset. Deletions from below/above only adjust the counts; deletions
// inside the window remove the stored value.
func (w *Window) Delete(x float64) error {
	if w.N() == 0 {
		return fmt.Errorf("medwin: delete from empty window")
	}
	w.slides++
	w.cSlides.Inc()
	if !w.degenerate && len(w.window) > 0 {
		i := sort.SearchFloat64s(w.window, x)
		if i < len(w.window) && w.window[i] == x {
			w.window = append(w.window[:i], w.window[i+1:]...)
			if len(w.window) == 0 && w.below+w.above > 0 {
				w.degenerate = true
			}
			return nil
		}
		if x < w.window[0] {
			if w.below == 0 {
				return fmt.Errorf("medwin: delete of untracked value %g", x)
			}
			w.below--
			return nil
		}
		if x > w.window[len(w.window)-1] {
			if w.above == 0 {
				return fmt.Errorf("medwin: delete of untracked value %g", x)
			}
			w.above--
			return nil
		}
		return fmt.Errorf("medwin: delete of value %g absent from window", x)
	}
	// Degenerate: only N is tracked; attribute the delete to any side
	// (a rebuild is already pending).
	if w.below >= w.above {
		w.below--
	} else {
		w.above--
	}
	return nil
}

// trim keeps the window from growing beyond capacity by shedding the
// edge farther from the pointer.
func (w *Window) trim() {
	for len(w.window) > w.capacity {
		lo, hi := w.targetIdx(w.N())
		distLo := lo - w.below
		distHi := (w.below + len(w.window) - 1) - hi
		if distLo > distHi {
			w.window = w.window[1:]
			w.below++
		} else {
			w.window = w.window[:len(w.window)-1]
			w.above++
		}
	}
}

// Rebuild regenerates the window from the full column in one pass over
// the data: the Section 4.2 regeneration. The new window is centered on
// the quantile pointer. Only the window's own order statistics are put in
// place and sorted (selectRange); the values outside it are counted, not
// ordered, so a regeneration is linear in the column.
func (w *Window) Rebuild(xs []float64, valid []bool) {
	vals := make([]float64, 0, len(xs))
	for i, x := range xs {
		if valid == nil || valid[i] {
			vals = append(vals, x)
		}
	}
	n := len(vals)
	w.degenerate = false
	if n == 0 {
		w.below, w.above, w.window = 0, 0, nil
		w.rebuilds++
		w.cRebuilds.Inc()
		return
	}
	lo, hi := w.targetIdx(n)
	start := lo - (w.capacity-(hi-lo+1))/2
	if start < 0 {
		start = 0
	}
	end := start + w.capacity
	if end > n {
		end = n
		if start > end-w.capacity && end-w.capacity >= 0 {
			start = end - w.capacity
		}
		if start < 0 {
			start = 0
		}
	}
	selectRange(vals, start, end)
	w.below = start
	w.above = n - end
	w.window = append([]float64(nil), vals[start:end]...)
	w.rebuilds++
	w.cRebuilds.Inc()
}

// selectRange rearranges a so that a[start:end] holds, in ascending
// order, exactly the values a full sort would leave there. It is
// quicksort that only descends into partitions overlapping the range:
// expected O(len(a) + (end-start) log(end-start)). Three-way partitioning
// around a median-of-three pivot makes constant and sorted input the
// best cases, and after 2·log2(n) splits whatever partition is left is
// handed to the library sort, which bounds the worst case at O(n log n).
// Values compare by cmp.Less — ascending, NaNs first — as sort.Float64s
// orders them.
func selectRange(a []float64, start, end int) {
	selectWithin(a, start, end, 2*bits.Len(uint(len(a))))
}

func selectWithin(a []float64, start, end, depth int) {
	lo, hi := 0, len(a) // the partition still to be ordered; it contains [start, end)
	for ; hi-lo > 16 && depth > 0; depth-- {
		pivot := a[lo+(hi-lo)/2]
		if x, z := a[lo], a[hi-1]; cmp.Less(x, pivot) != cmp.Less(x, z) {
			pivot = x
		} else if cmp.Less(z, pivot) != cmp.Less(z, x) {
			pivot = z
		}
		// Invariant: [lo,lt) < pivot, [lt,i) == pivot, (gt,hi) > pivot.
		lt, i, gt := lo, lo, hi-1
		for i <= gt {
			switch x := a[i]; {
			case cmp.Less(x, pivot):
				a[lt], a[i] = x, a[lt]
				lt++
				i++
			case cmp.Less(pivot, x):
				a[gt], a[i] = x, a[gt]
				gt--
			default:
				i++
			}
		}
		gt++ // now [gt,hi) > pivot
		switch {
		case end <= lt:
			hi = lt
		case start >= gt:
			lo = gt
		default:
			// The range reaches the pivot's copies, which are in place:
			// order what it takes of each side.
			if start < lt {
				selectWithin(a[lo:lt], start-lo, lt-lo, depth-1)
			}
			if end > gt {
				selectWithin(a[gt:hi], 0, end-gt, depth-1)
			}
			return
		}
	}
	sort.Float64s(a[lo:hi])
}
