package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// cells is a fixed-length column written the way a view update writes
// one. peak is the largest magnitude any cell has held.
type cells struct {
	xs    []float64
	valid []bool
	peak  float64
}

// write sets cell i to x, or to missing unless ok, and returns the Delta
// that does it.
func (c *cells) write(i int, x float64, ok bool) Delta {
	d := Delta{Delete: c.valid[i], Old: c.xs[i], Insert: ok, New: x}
	if ok {
		c.peak = math.Max(c.peak, math.Abs(x))
	}
	c.xs[i], c.valid[i] = x, ok
	return d
}

// keptUlps bounds the drift of Sum, Mean and M2 against a refold: that
// many units in the last place of the largest magnitude each held.
const keptUlps = 4096

// checkKept holds k to the fold of the column it describes: N, Missing
// and the copies of the extremes exactly; Min and Max exactly unless
// lost, when they must still bound every value strictly; Sum, Mean and
// M2 within keptUlps of the peak's scale — and all zero once nothing is
// left.
func checkKept(t *testing.T, step string, k KeptMoments, c *cells) {
	t.Helper()
	want := KeepMoments(c.xs, c.valid)
	if k.N != want.N || k.Missing != want.Missing {
		t.Fatalf("%s: N, Missing = %d, %d; refold %d, %d", step, k.N, k.Missing, want.N, want.Missing)
	}
	if k.N == 0 {
		if k != want {
			t.Fatalf("%s: emptied state %+v, refold %+v", step, k, want)
		}
		return
	}
	lostMin, lostMax := k.Lost()
	for i, x := range c.xs {
		if c.valid[i] && (lostMin && x <= k.Min || lostMax && x >= k.Max) {
			t.Fatalf("%s: lost extremes [%g, %g] do not bound %g strictly", step, k.Min, k.Max, x)
		}
	}
	if !lostMin && (k.Min != want.Min || k.MinCopies != want.MinCopies) {
		t.Fatalf("%s: Min %g ×%d, refold %g ×%d", step, k.Min, k.MinCopies, want.Min, want.MinCopies)
	}
	if !lostMax && (k.Max != want.Max || k.MaxCopies != want.MaxCopies) {
		t.Fatalf("%s: Max %g ×%d, refold %g ×%d", step, k.Max, k.MaxCopies, want.Max, want.MaxCopies)
	}
	n := float64(len(c.xs))
	for _, s := range []struct {
		name           string
		got, ref, size float64
	}{
		{"Sum", k.Sum, want.Sum, n * c.peak},
		{"Mean", k.Mean, want.Mean, c.peak},
		{"M2", k.M2, want.M2, n * 4 * c.peak * c.peak},
	} {
		if math.Abs(s.got-s.ref) > keptUlps*s.size*0x1p-52 {
			t.Fatalf("%s: %s = %g, refold %g: off by more than %d ulps of %g", step, s.name, s.got, s.ref, keptUlps, s.size)
		}
	}
}

// TestKeptMomentsMatchesRefold: after any prefix of update batches the
// kept state equals FoldMoments of the column — over a small value domain,
// so extremes come in duplicates; with rows hit twice in a batch, so
// batches carry cancelling pairs; and with whole-column deletes, so the
// column empties and refills.
func TestKeptMomentsMatchesRefold(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		draw := func() (float64, bool) { return float64(rng.Intn(9)-4) * 1.1, rng.Intn(8) != 0 }
		n := 1 + rng.Intn(40)
		c := &cells{xs: make([]float64, n), valid: make([]bool, n)}
		for i := range c.xs {
			x, ok := draw()
			c.write(i, x, ok)
		}
		k := KeepMoments(c.xs, c.valid)
		for round := 0; round < 8; round++ {
			var batch []Delta
			if rng.Intn(5) == 0 {
				for i := range c.xs {
					batch = append(batch, c.write(i, 0, false))
				}
			} else {
				for w := rng.Intn(2 * n); w >= 0; w-- {
					x, ok := draw()
					batch = append(batch, c.write(rng.Intn(n), x, ok))
				}
			}
			if !k.Apply(batch) {
				t.Fatalf("seed %d round %d: a batch of finite cell writes was refused", seed, round)
			}
			checkKept(t, fmt.Sprintf("seed %d round %d", seed, round), k, c)
		}
	}
}

// TestKeptMomentsDefeats: what the state cannot follow. A delete of a
// value outside its extremes, or of a NaN or an infinity, is refused; a
// delete of the last copy of an extremum loses it until an insert at the
// bound restores it; a delete of one copy of several does not.
func TestKeptMomentsDefeats(t *testing.T) {
	del := func(x float64) []Delta { return []Delta{{Delete: true, Old: x}} }
	k := KeepMoments([]float64{3, 3, 7, math.NaN()}, nil)
	for _, x := range []float64{2, 8, math.NaN()} {
		kk := k
		if kk.Apply(del(x)) {
			t.Errorf("delete of %v accepted", x)
		}
	}
	if k = KeepMoments([]float64{3, 3, 7, math.Inf(1)}, nil); k.Apply(del(math.Inf(1))) {
		t.Error("delete of +Inf accepted")
	}
	k = KeepMoments([]float64{3, 3, 7}, nil)
	if !k.Apply(del(3)) {
		t.Fatal("delete of one of two copies of the minimum refused")
	}
	if lostMin, _ := k.Lost(); lostMin || k.Min != 3 || k.MinCopies != 1 {
		t.Errorf("one copy left: min %g ×%d, lost %v", k.Min, k.MinCopies, lostMin)
	}
	if !k.Apply(del(3)) {
		t.Fatal("delete of the last copy of the minimum refused")
	}
	if lostMin, lostMax := k.Lost(); !lostMin || lostMax {
		t.Errorf("last copy gone: lost %v, %v; want the minimum only", lostMin, lostMax)
	}
	if k.Apply(del(3)) {
		t.Error("delete of a copy the lost minimum no longer has accepted")
	}
	k = KeepMoments([]float64{3, 7}, nil)
	k.Apply([]Delta{{Delete: true, Old: 3, Insert: true, New: 3}})
	if lostMin, _ := k.Lost(); lostMin || k.Min != 3 || k.MinCopies != 1 {
		t.Errorf("an insert at the lost bound left min %g ×%d, lost %v", k.Min, k.MinCopies, lostMin)
	}
}

// FuzzMomentsDelta: bytes are a column and a sequence of cell writes;
// the kept state must never panic, never refuse a finite write, and
// after every batch equal the refold of the column (checkKept). The
// first byte sizes the column, the next fill it; then each pair is a
// write of row b0 (a set high bit ends the batch) to value b1, where
// 0x80 is missing and any other byte is int8/3.
func FuzzMomentsDelta(f *testing.F) {
	f.Add([]byte{4, 3, 0x80, 3, 9, 1, 6, 0x82, 0x80, 2, 3})
	f.Add([]byte{2, 5, 5, 0, 0x80, 0x81, 0x80, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]%32) + 1
		data = data[1:]
		value := func(b byte) (float64, bool) { return float64(int8(b)) / 3, b != 0x80 }
		c := &cells{xs: make([]float64, n), valid: make([]bool, n)}
		for i := 0; i < n && len(data) > 0; i++ {
			x, ok := value(data[0])
			c.write(i, x, ok)
			data = data[1:]
		}
		k := KeepMoments(c.xs, c.valid)
		var batch []Delta
		for len(data) >= 2 {
			x, ok := value(data[1])
			batch = append(batch, c.write(int(data[0]&0x7f)%n, x, ok))
			if data[0]&0x80 != 0 || len(data) < 4 {
				if !k.Apply(batch) {
					t.Fatalf("a batch of finite cell writes was refused: %v", batch)
				}
				checkKept(t, "batch", k, c)
				batch = batch[:0]
			}
			data = data[2:]
		}
	})
}
