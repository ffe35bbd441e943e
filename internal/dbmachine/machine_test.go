package dbmachine

import (
	"math/rand"
	"testing"

	"statdb/internal/dataset"
	"statdb/internal/relalg"
	"statdb/internal/stats"
	"statdb/internal/tape"
	"statdb/internal/workload"
)

// Default is the modest 8-processor machine the tests share.
func Default() Config {
	return Config{Processors: 8, RowProcessCost: 2, RowShipCost: 1}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Processors: 0}); err == nil {
		t.Error("zero processors accepted")
	}
	m, err := New(Default())
	if err != nil || m.cfg.Processors != 8 {
		t.Fatalf("Default: %v, %v", m, err)
	}
}

func TestFilterScanMatchesHostSelect(t *testing.T) {
	census, err := workload.Census(workload.DefaultCensusSpec())
	if err != nil {
		t.Fatal(err)
	}
	a := tape.NewArchive(tape.DefaultCost())
	if err := a.Write("census", census); err != nil {
		t.Fatal(err)
	}
	m, _ := New(Default())
	pred := relalg.Cmp{Attr: "SEX", Op: relalg.Eq, Val: dataset.String("M")}
	got, st, err := m.FilterScan(a, "census", pred)
	if err != nil {
		t.Fatal(err)
	}
	want, err := relalg.Select(census, pred)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != want.Rows() {
		t.Fatalf("rows = %d, want %d", got.Rows(), want.Rows())
	}
	if st.RowsScanned != int64(census.Rows()) || st.RowsShipped != int64(want.Rows()) {
		t.Errorf("stats = %+v", st)
	}
	// The machine beats the host on total non-transfer work.
	host := m.HostFilterCost(st.RowsScanned)
	if st.Total() >= host.Total() {
		t.Errorf("machine %d >= host %d", st.Total(), host.Total())
	}
}

func TestFilterScanErrors(t *testing.T) {
	a := tape.NewArchive(tape.DefaultCost())
	m, _ := New(Default())
	if _, _, err := m.FilterScan(a, "missing", relalg.All{}); err == nil {
		t.Error("missing file accepted")
	}
	if err := a.Write("f", workload.Figure1()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.FilterScan(a, "f", relalg.Cmp{Attr: "NOPE", Op: relalg.Eq, Val: dataset.Int(1)}); err == nil {
		t.Error("bad predicate accepted")
	}
}

func TestAggregateMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 10007) // odd size: uneven partitions
	valid := make([]bool, len(xs))
	for i := range xs {
		xs[i] = rng.NormFloat64() * 100
		valid[i] = i%13 != 0
	}
	for _, p := range []int{1, 3, 8, 32} {
		m, err := New(Config{Processors: p, RowProcessCost: 1, RowShipCost: 1})
		if err != nil {
			t.Fatal(err)
		}
		sum, _, err := m.Aggregate(AggSum, xs, valid)
		if err != nil {
			t.Fatal(err)
		}
		if want := stats.Sum(xs, valid); !almostEq(sum, want, 1e-6) {
			t.Errorf("p=%d: sum %g, want %g", p, sum, want)
		}
		mn, _, _ := m.Aggregate(AggMin, xs, valid)
		if want, _ := stats.Min(xs, valid); mn != want {
			t.Errorf("p=%d: min %g, want %g", p, mn, want)
		}
		mx, _, _ := m.Aggregate(AggMax, xs, valid)
		if want, _ := stats.Max(xs, valid); mx != want {
			t.Errorf("p=%d: max %g, want %g", p, mx, want)
		}
		cnt, _, _ := m.Aggregate(AggCount, xs, valid)
		if want := float64(stats.Count(xs, valid)); cnt != want {
			t.Errorf("p=%d: count %g, want %g", p, cnt, want)
		}
	}
}

func almostEq(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := b
	if scale < 0 {
		scale = -scale
	}
	if scale < 1 {
		scale = 1
	}
	return d <= tol*scale
}

func TestAggregateEmptyAndErrors(t *testing.T) {
	m, _ := New(Default())
	if _, _, err := m.Aggregate(AggMin, nil, nil); err == nil {
		t.Error("min of empty accepted")
	}
	cnt, _, err := m.Aggregate(AggCount, nil, nil)
	if err != nil || cnt != 0 {
		t.Errorf("count of empty = %g, %v", cnt, err)
	}
	if _, _, err := m.Aggregate(AggregateKind(99), []float64{1}, nil); err == nil {
		t.Error("unknown aggregate accepted")
	}
}

func TestAggregateParallelSpeedupModel(t *testing.T) {
	xs := make([]float64, 100000)
	m1, _ := New(Config{Processors: 1, RowProcessCost: 2, RowShipCost: 1})
	m16, _ := New(Config{Processors: 16, RowProcessCost: 2, RowShipCost: 1})
	_, st1, err := m1.Aggregate(AggSum, xs, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, st16, err := m16.Aggregate(AggSum, xs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Machine time scales ~1/P; host merge grows with P but stays tiny.
	if st16.MachineTicks*15 > st1.MachineTicks {
		t.Errorf("16-way machine ticks %d vs 1-way %d", st16.MachineTicks, st1.MachineTicks)
	}
	if st16.HostTicks != 16 {
		t.Errorf("merge cost = %d", st16.HostTicks)
	}
}

func TestAssociativeSearch(t *testing.T) {
	m, _ := New(Config{Processors: 10, RowProcessCost: 1, RowShipCost: 1})
	machine, host := m.AssociativeSearch(1000)
	if machine != 100 || host != 1000 {
		t.Errorf("search = %d/%d", machine, host)
	}
	machine, _ = m.AssociativeSearch(5)
	if machine != 1 {
		t.Errorf("small search = %d", machine)
	}
}
