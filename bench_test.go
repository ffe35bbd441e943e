package statdb_test

// Benchmarks: one per paper figure/claim (wrapping the deterministic
// experiment tables of internal/bench so `go test -bench=.` regenerates
// every result), plus wall-clock micro-benchmarks of the mechanisms the
// experiments rely on: summary-cache hit vs recompute, incremental vs
// full aggregation, window slide vs full median, transposed vs row
// scans, and tape re-derivation vs concrete-view reuse.

import (
	"fmt"
	"math/rand"
	"testing"

	"statdb/internal/bench"
	"statdb/internal/colstore"
	"statdb/internal/dataset"
	"statdb/internal/exec"
	"statdb/internal/incr"
	"statdb/internal/medwin"
	"statdb/internal/relalg"
	"statdb/internal/rules"
	"statdb/internal/stats"
	"statdb/internal/storage"
	"statdb/internal/summary"
	"statdb/internal/tape"
	"statdb/internal/workload"
)

// benchExperiment runs a whole experiment table once per iteration.
func benchExperiment(b *testing.B, run func() (*bench.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1Dataset(b *testing.B)      { benchExperiment(b, bench.Figure1Dataset) }
func BenchmarkFigure2Decode(b *testing.B)       { benchExperiment(b, bench.Figure2Decode) }
func BenchmarkFigure3Architecture(b *testing.B) { benchExperiment(b, bench.Figure3Architecture) }
func BenchmarkFigure4SummaryDB(b *testing.B)    { benchExperiment(b, bench.Figure4SummaryDB) }
func BenchmarkFigure5FiniteDifferencing(b *testing.B) {
	benchExperiment(b, bench.Figure5FiniteDifferencing)
}
func BenchmarkE1SummaryCache(b *testing.B)      { benchExperiment(b, bench.E1SummaryCache) }
func BenchmarkE2Incremental(b *testing.B)       { benchExperiment(b, bench.E2Incremental) }
func BenchmarkE3MedianWindow(b *testing.B)      { benchExperiment(b, bench.E3MedianWindow) }
func BenchmarkE4Transposed(b *testing.B)        { benchExperiment(b, bench.E4Transposed) }
func BenchmarkE5Compression(b *testing.B)       { benchExperiment(b, bench.E5Compression) }
func BenchmarkE6Materialization(b *testing.B)   { benchExperiment(b, bench.E6Materialization) }
func BenchmarkE7Policies(b *testing.B)          { benchExperiment(b, bench.E7Policies) }
func BenchmarkE8Sampling(b *testing.B)          { benchExperiment(b, bench.E8Sampling) }
func BenchmarkE9DerivedRules(b *testing.B)      { benchExperiment(b, bench.E9DerivedRules) }
func BenchmarkE10Abstract(b *testing.B)         { benchExperiment(b, bench.E10Abstract) }
func BenchmarkE11DatabaseMachine(b *testing.B)  { benchExperiment(b, bench.E11DatabaseMachine) }
func BenchmarkE12ViewBacking(b *testing.B)      { benchExperiment(b, bench.E12ViewBacking) }
func BenchmarkE13ParallelEngine(b *testing.B)   { benchExperiment(b, bench.E13ParallelEngine) }
func BenchmarkE14RecoveryCost(b *testing.B)     { benchExperiment(b, bench.E14RecoveryCost) }
func BenchmarkE15ObsOverhead(b *testing.B)      { benchExperiment(b, bench.E15ObsOverhead) }
func BenchmarkAblationClustering(b *testing.B)  { benchExperiment(b, bench.AblationClustering) }
func BenchmarkAblationWindowWidth(b *testing.B) { benchExperiment(b, bench.AblationWindowWidth) }
func BenchmarkAblationAutoReorg(b *testing.B)   { benchExperiment(b, bench.AblationAutoReorg) }
func BenchmarkAblationUndo(b *testing.B)        { benchExperiment(b, bench.AblationUndo) }
func BenchmarkAblationBufferPool(b *testing.B)  { benchExperiment(b, bench.AblationBufferPool) }

// ---- wall-clock micro-benchmarks ----

func randColumn(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(rng.Intn(100000))
	}
	return xs
}

// BenchmarkSummaryCacheHit vs BenchmarkSummaryCacheMiss: the E1 mechanism
// at nanosecond resolution.
func BenchmarkSummaryCacheHit(b *testing.B) {
	xs := randColumn(100000)
	db := summary.NewDB(rules.NewManagementDB())
	src := func() ([]float64, []bool) { return xs, nil }
	if _, err := db.Scalar("mean", "X", src); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Scalar("mean", "X", src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSummaryCacheMissRecompute(b *testing.B) {
	xs := randColumn(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.Mean(xs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Incremental vs full recomputation per update (E2 mechanism).
func BenchmarkIncrementalUpdate(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			xs := randColumn(n)
			m := incr.NewVariance(xs, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Apply(incr.UpdateOf(xs[i%n], float64(i)))
			}
		})
	}
}

func BenchmarkFullRecomputeUpdate(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			xs := randColumn(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				xs[i%n] = float64(i)
				if _, err := stats.Variance(xs, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Median window slide vs full median (E3 mechanism).
func BenchmarkMedianWindowSlide(b *testing.B) {
	xs := randColumn(100000)
	w, err := medwin.NewMedian(xs, nil, 100)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		old := xs[i%len(xs)]
		nv := old + 1
		if err := w.Delete(old); err != nil {
			b.Fatal(err)
		}
		w.Insert(nv)
		xs[i%len(xs)] = nv
		if w.NeedsRebuild() {
			w.Rebuild(xs, nil)
		}
		if _, err := w.Value(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMedianFullRecompute(b *testing.B) {
	xs := randColumn(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xs[i%len(xs)]++
		if _, err := stats.Median(xs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Whole-column Summarize, serial vs through the execution pool (E13
// mechanism; on a single-CPU machine the pool's win shows up in the
// deterministic tick tables rather than wall clock).
func BenchmarkSummarizeSerial(b *testing.B) {
	xs := randColumn(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.Summarize(xs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSummarizeParallel(b *testing.B) {
	xs := randColumn(100000)
	p := exec.New(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec.ColumnFold(p, xs, nil, exec.DefaultChunk, true, true)
	}
}

// Transposed column scan vs heap-file scan (E4 mechanism).
func BenchmarkTransposedColumnScan(b *testing.B) {
	census, err := workload.Census(workload.DefaultCensusSpec())
	if err != nil {
		b.Fatal(err)
	}
	dev := storage.NewMemDevice(storage.DefaultDiskCost())
	cf, err := colstore.Load(storage.NewBufferPool(dev, 64), census, colstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		err := cf.ScanColumn("AVE_SALARY", func(_ int, v dataset.Value) bool {
			sum += v.AsFloat()
			return true
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeapFileScan(b *testing.B) {
	census, err := workload.Census(workload.DefaultCensusSpec())
	if err != nil {
		b.Fatal(err)
	}
	dev := storage.NewMemDevice(storage.DefaultDiskCost())
	heap := storage.NewHeapFile(storage.NewBufferPool(dev, 64), census.Schema())
	if _, err := heap.Load(census); err != nil {
		b.Fatal(err)
	}
	si := census.Schema().Index("AVE_SALARY")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		err := heap.Scan(func(_ storage.RID, row dataset.Row) bool {
			if !row[si].IsNull() {
				sum += row[si].AsFloat()
			}
			return true
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// Tape re-derivation vs in-memory concrete view reuse (E6 mechanism).
func BenchmarkTapeRederive(b *testing.B) {
	census, err := workload.Census(workload.DefaultCensusSpec())
	if err != nil {
		b.Fatal(err)
	}
	archive := tape.NewArchive(tape.DefaultCost())
	if err := archive.Write("census", census); err != nil {
		b.Fatal(err)
	}
	pred := relalg.Cmp{Attr: "SEX", Op: relalg.Eq, Val: dataset.String("M")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := archive.Materialize("census")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := relalg.Select(raw, pred); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConcreteViewReuse(b *testing.B) {
	census, err := workload.Census(workload.DefaultCensusSpec())
	if err != nil {
		b.Fatal(err)
	}
	pred := relalg.Cmp{Attr: "SEX", Op: relalg.Eq, Val: dataset.String("M")}
	v, err := relalg.Select(census, pred)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := v.NumericByName("AVE_SALARY"); err != nil {
			b.Fatal(err)
		}
	}
}

// Row codec and B-tree micro-benchmarks (storage substrate).
func BenchmarkRowCodecEncode(b *testing.B) {
	row := dataset.Row{
		dataset.String("M"), dataset.Int(12300347), dataset.Float(33122.5), dataset.Null,
	}
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = storage.EncodeRow(buf[:0], row)
	}
}

func BenchmarkRowCodecDecode(b *testing.B) {
	row := dataset.Row{
		dataset.String("M"), dataset.Int(12300347), dataset.Float(33122.5), dataset.Null,
	}
	enc := storage.EncodeRow(nil, row)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := storage.DecodeRow(enc, len(row)); err != nil {
			b.Fatal(err)
		}
	}
}
