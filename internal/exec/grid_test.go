package exec_test

import (
	"math"
	"math/rand"
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

// FuzzGridFold: a column of zero to three chunks, with missing cells,
// NaNs and infinities where marks put them, folds to the same moments
// bit for bit inline, at every pool width and through KeepMoments; a
// column of at most one chunk is the stats/desc.go operators exactly.
// Each mark is three bytes: a row (two bytes, modulo the length) and
// what the cell becomes — missing, NaN, +Inf or -Inf.
func FuzzGridFold(f *testing.F) {
	f.Add(int64(1), uint16(0), []byte(nil))
	f.Add(int64(2), uint16(exec.DefaultChunk), []byte(nil))
	f.Add(int64(3), uint16(6000), []byte{0, 10, 0, 20, 0, 1})
	f.Add(int64(4), uint16(3*exec.DefaultChunk), []byte{0x10, 0, 2, 0x20, 0, 3})
	f.Add(int64(6), uint16(17), []byte{0, 3, 2, 0, 4, 3})
	f.Fuzz(func(t *testing.T, seed int64, n uint16, marks []byte) {
		rows := int(n) % (3*exec.DefaultChunk + 1)
		rng := rand.New(rand.NewSource(seed))
		scale := math.Pow(10, float64(rng.Intn(13)-6))
		xs, valid := make([]float64, rows), make([]bool, rows)
		for i := range xs {
			xs[i], valid[i] = rng.NormFloat64()*scale+float64(rng.Intn(3))*scale*10, rng.Intn(16) != 0
		}
		for ; rows > 0 && len(marks) >= 3; marks = marks[3:] {
			i := (int(marks[0])<<8 | int(marks[1])) % rows
			switch marks[2] % 4 {
			case 0:
				valid[i] = false
			case 1:
				xs[i], valid[i] = math.NaN(), true
			case 2:
				xs[i], valid[i] = math.Inf(1), true
			case 3:
				xs[i], valid[i] = math.Inf(-1), true
			}
		}
		if seed%3 == 0 {
			valid = nil // every cell present
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
		mn, err := stats.Min(xs, valid)
		mx, _ := stats.Max(xs, valid)
		if err == nil && (!same(want.Min, mn) || !same(want.Max, mx)) {
			t.Fatalf("%d rows: extremes [%v, %v], stats [%v, %v]", rows, want.Min, want.Max, mn, mx)
		}
	})
}
