package relalg

import (
	"testing"

	"statdb/internal/dataset"
	"statdb/internal/exec"
)

// testLCG is a tiny deterministic generator (this package is under the
// engine's determinism rule, so math/rand is off-limits even in tests).
type testLCG uint64

func (g *testLCG) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g)
}

func (g *testLCG) intn(n int) int { return int(g.next() % uint64(n)) }

// groupedFixture builds a deterministic data set with a few category
// keys and numeric measures (some missing).
func groupedFixture(t testing.TB, n int) *dataset.Dataset {
	t.Helper()
	sch := dataset.MustSchema(
		dataset.Attribute{Name: "REGION", Kind: dataset.KindString, Category: true},
		dataset.Attribute{Name: "GROUP", Kind: dataset.KindInt, Category: true},
		dataset.Attribute{Name: "VALUE", Kind: dataset.KindFloat},
		dataset.Attribute{Name: "WEIGHT", Kind: dataset.KindFloat},
	)
	ds := dataset.New(sch)
	regions := []string{"N", "S", "E", "W"}
	g := testLCG(12345)
	for i := 0; i < n; i++ {
		row := dataset.Row{
			dataset.String(regions[g.intn(len(regions))]),
			dataset.Int(int64(g.intn(5))),
			dataset.Float((float64(g.intn(801)) - 400) / 4),
			dataset.Float(1 + float64(g.intn(9))),
		}
		if g.intn(25) == 0 {
			row[2] = dataset.Null
		}
		if g.intn(40) == 0 {
			row[1] = dataset.Null // null keys form their own group
		}
		if err := ds.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func sameDataset(t *testing.T, label string, got, want *dataset.Dataset) {
	t.Helper()
	if !got.Schema().Equal(want.Schema()) {
		t.Fatalf("%s: schema [%s] != [%s]", label, got.Schema(), want.Schema())
	}
	if got.Rows() != want.Rows() {
		t.Fatalf("%s: %d rows != %d", label, got.Rows(), want.Rows())
	}
	for r := 0; r < want.Rows(); r++ {
		for c := 0; c < want.Schema().Len(); c++ {
			g, w := got.Cell(r, c), want.Cell(r, c)
			if g == w {
				continue
			}
			t.Fatalf("%s: cell (%d,%s) = %v, want %v", label, r, want.Schema().At(c).Name, g, w)
		}
	}
}

// TestSelectWithMatchesSelect: the parallel filter must emit the same
// rows in the same order as the serial operator, for every worker
// count.
func TestSelectWithMatchesSelect(t *testing.T) {
	ds := groupedFixture(t, 12007)
	pred := And{
		Cmp{Attr: "VALUE", Op: Gt, Val: dataset.Float(-20)},
		Or{
			Cmp{Attr: "REGION", Op: Eq, Val: dataset.String("N")},
			Cmp{Attr: "GROUP", Op: Ge, Val: dataset.Int(3)},
		},
	}
	want, err := Select(ds, pred)
	if err != nil {
		t.Fatal(err)
	}
	if want.Rows() == 0 || want.Rows() == ds.Rows() {
		t.Fatalf("degenerate selectivity: %d of %d rows", want.Rows(), ds.Rows())
	}
	for _, workers := range []int{1, 2, 4, 8} {
		got, err := SelectWith(exec.New(workers), ds, pred, 512)
		if err != nil {
			t.Fatal(err)
		}
		sameDataset(t, "select", got, want) // bit-identical: rows are copied, not recomputed
	}
	if _, err := SelectWith(exec.New(4), ds, Cmp{Attr: "NOPE", Op: Eq, Val: dataset.Int(1)}, 512); err == nil {
		t.Error("bad predicate should error through the parallel path too")
	}
}
