package exec_test

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"statdb/internal/exec"
	"statdb/internal/stats"
)

// sameBits reports whether two moments states are equal bit for bit, a
// NaN field meeting only the same NaN.
func sameBits(a, b exec.Moments) bool {
	bits := math.Float64bits
	return a.N == b.N && a.Missing == b.Missing &&
		bits(a.Sum) == bits(b.Sum) && bits(a.Mean) == bits(b.Mean) && bits(a.M2) == bits(b.M2) &&
		bits(a.Min) == bits(b.Min) && bits(a.Max) == bits(b.Max)
}

// sameTable reports whether two frequency tables are equal bit for bit.
func sameTable(a, b exec.FreqTable) bool {
	return slices.Equal(a.Counts, b.Counts) && slices.EqualFunc(a.Values, b.Values, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// refTable is the frequency table by definition: the valid values, −0
// as +0, sorted by cmp.Compare and run-length encoded, a run of NaNs
// held as math.NaN().
func refTable(xs []float64, valid []bool) exec.FreqTable {
	var sorted []float64
	for i, x := range xs {
		if valid == nil || valid[i] {
			if x == 0 {
				x = 0
			}
			sorted = append(sorted, x)
		}
	}
	slices.SortFunc(sorted, cmp.Compare[float64])
	var t exec.FreqTable
	for i, x := range sorted {
		if i > 0 && cmp.Compare(x, sorted[i-1]) == 0 {
			t.Counts[len(t.Counts)-1]++
			continue
		}
		if x != x {
			x = math.NaN()
		}
		t.Values, t.Counts = append(t.Values, x), append(t.Counts, 1)
	}
	return t
}

// FuzzGridFold: a column of zero to three chunks, with missing cells,
// NaNs (payloads and signs included), infinities and zeros of either
// sign where marks put them, folds to the same moments bit for bit
// inline, at every pool width and through KeepMoments, and to the same
// frequency table — the sorted, run-length-encoded reference — at every
// width; a column of at most one chunk is the stats/desc.go operators
// exactly. A random batch of cell writes merged into the table by Apply
// leaves what a fold of the written column tabulates. Each mark is
// three bytes: a row (two bytes, modulo the length) and what the cell
// becomes — missing, NaN, +Inf, -Inf, −0, +0 or a NaN whose sign and
// payload are the row bytes.
func FuzzGridFold(f *testing.F) {
	f.Add(int64(1), uint16(0), []byte(nil))
	f.Add(int64(2), uint16(exec.DefaultChunk), []byte(nil))
	f.Add(int64(3), uint16(6000), []byte{0, 10, 0, 20, 0, 1})
	f.Add(int64(4), uint16(3*exec.DefaultChunk), []byte{0x10, 0, 2, 0x20, 0, 3})
	f.Add(int64(6), uint16(17), []byte{0, 3, 2, 0, 4, 3})
	f.Add(int64(7), uint16(5000), []byte{0, 1, 4, 0x10, 2, 5, 0x81, 3, 6, 0, 4, 1})
	f.Fuzz(func(t *testing.T, seed int64, n uint16, marks []byte) {
		rows := int(n) % (3*exec.DefaultChunk + 1)
		rng := rand.New(rand.NewSource(seed))
		scale := math.Pow(10, float64(rng.Intn(13)-6))
		xs, valid := make([]float64, rows), make([]bool, rows)
		for i := range xs {
			xs[i], valid[i] = rng.NormFloat64()*scale+float64(rng.Intn(3))*scale*10, rng.Intn(16) != 0
		}
		cell := func(kind, hi, lo byte) (float64, bool) {
			switch kind % 7 {
			case 1:
				return math.NaN(), true
			case 2:
				return math.Inf(1), true
			case 3:
				return math.Inf(-1), true
			case 4:
				return math.Copysign(0, -1), true
			case 5:
				return 0, true
			case 6:
				return math.Float64frombits(uint64(hi&0x80)<<56 | 0x7ff0<<48 | uint64(hi&0x7f)<<8 | uint64(lo) | 1), true
			}
			return 0, false
		}
		for ; rows > 0 && len(marks) >= 3; marks = marks[3:] {
			i := (int(marks[0])<<8 | int(marks[1])) % rows
			if x, ok := cell(marks[2], marks[0], marks[1]); ok {
				xs[i], valid[i] = x, true
			} else {
				valid[i] = false
			}
		}
		if seed%3 == 0 {
			valid = nil // every cell present
		}
		ref := refTable(xs, valid)
		for _, w := range []int{0, 1, 2, 4, 8} {
			var p *exec.Pool
			if w > 0 {
				p = exec.New(w)
			}
			if _, got := exec.ColumnFold(p, xs, valid, exec.DefaultChunk, false, true); !sameTable(got, ref) {
				t.Fatalf("%d rows, %d workers: table of %d values, reference %d", rows, w, len(got.Values), len(ref.Values))
			}
		}
		if rows > 0 {
			// Cell writes to a copy of the column, as a view makes them: each
			// deletes the value the cell held, if any, and inserts its new one.
			ys, present := slices.Clone(xs), make([]bool, rows)
			for i := range present {
				present[i] = valid == nil || valid[i]
			}
			_, tab := exec.ColumnFold(nil, xs, valid, exec.DefaultChunk, false, true)
			batch := make([]exec.Change, 0, 32)
			for range 1 + rng.Intn(16) {
				i := rng.Intn(rows)
				if present[i] {
					batch = append(batch, exec.Change{Value: ys[i], N: -1})
				}
				y, ok := cell(byte(rng.Intn(8)), byte(rng.Intn(256)), byte(rng.Intn(256)))
				if rng.Intn(8) == 7 {
					y, ok = float64(rng.Intn(5)), true
				}
				if ok {
					batch = append(batch, exec.Change{Value: y, N: 1})
				}
				ys[i], present[i] = y, ok
			}
			if !tab.Apply(batch) {
				t.Fatalf("%d rows: a batch of the column's own cells refused", rows)
			}
			if _, refold := exec.ColumnFold(nil, ys, present, exec.DefaultChunk, false, true); !sameTable(tab, refold) {
				t.Fatalf("%d rows: table after the batch has %d values, a refold %d", rows, len(tab.Values), len(refold.Values))
			}
		}
		want := exec.ColumnMoments(nil, xs, valid, exec.DefaultChunk)
		if got := exec.KeepMoments(xs, valid).Moments; !sameBits(got, want) {
			t.Fatalf("%d rows: KeepMoments %+v, inline fold %+v", rows, got, want)
		}
		for _, w := range []int{1, 2, 4, 8} {
			if got, _ := exec.ColumnFold(exec.New(w), xs, valid, exec.DefaultChunk, true, true); !sameBits(got, want) {
				t.Fatalf("%d rows, %d workers: %+v, inline fold %+v", rows, w, got, want)
			}
		}
		if rows > exec.DefaultChunk {
			return
		}
		// Addition commutes, so which operand's NaN a sum of two NaNs keeps
		// is the compiler's choice: a NaN meets any NaN here.
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b }
		if s := stats.Sum(xs, valid); !same(want.Sum, s) {
			t.Fatalf("%d rows: Sum %v, stats.Sum %v", rows, want.Sum, s)
		}
		if s, err := stats.Mean(xs, valid); err == nil && !same(want.Mean, s) {
			t.Fatalf("%d rows: Mean %v, stats.Mean %v", rows, want.Mean, s)
		}
		v, err := want.Variance()
		if s, serr := stats.Variance(xs, valid); (err == nil) != (serr == nil) || err == nil && !same(v, s) {
			t.Fatalf("%d rows: Variance %v (%v), stats.Variance %v (%v)", rows, v, err, s, serr)
		}
		mn, mx, err := stats.Extremes(xs, valid)
		if err == nil && (!same(want.Min, mn) || !same(want.Max, mx)) {
			t.Fatalf("%d rows: extremes [%v, %v], stats [%v, %v]", rows, want.Min, want.Max, mn, mx)
		}
	})
}
