package shard

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"statdb/internal/dataset"
	"statdb/internal/exec"
	"statdb/internal/obs"
	"statdb/internal/storage"
)

// testDataset builds rows of one float and one int column with a few
// missing cells, deterministic in n.
func testDataset(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	ds := dataset.New(dataset.MustSchema(
		dataset.Attribute{Name: "x", Kind: dataset.KindFloat},
		dataset.Attribute{Name: "g", Kind: dataset.KindInt},
	))
	ds.SetName("t")
	for i := 0; i < n; i++ {
		x := float64(i%997)*0.5 - 100
		if err := ds.Append(dataset.Row{dataset.Float(x), dataset.Int(int64(i % 13))}); err != nil {
			t.Fatal(err)
		}
		if i%101 == 0 {
			if err := ds.MarkMissing(i, "x"); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ds
}

func TestHealthyPathBitIdentical(t *testing.T) {
	const rows, chunk = 8000, 512
	ds := testDataset(t, rows)
	xs, valid, err := ds.NumericByName("x")
	if err != nil {
		t.Fatal(err)
	}
	ref := exec.ColumnMoments(exec.New(4), xs, valid, chunk)
	refFreq := exec.ColumnFreq(exec.New(4), xs, valid, chunk)

	for _, pol := range []Policy{PlaceRoundRobin, PlaceRange} {
		for _, shards := range []int{1, 2, 4, 5} {
			st, err := New("t", ds, Config{Shards: shards, Chunk: chunk, Policy: pol})
			if err != nil {
				t.Fatalf("%v/%d: %v", pol, shards, err)
			}
			got, rep, err := st.Moments("x")
			if err != nil {
				t.Fatalf("%v/%d moments: %v", pol, shards, err)
			}
			if rep.Degraded() || len(rep.Answered) != shards {
				t.Fatalf("%v/%d healthy report = %s", pol, shards, rep)
			}
			if got != ref {
				t.Fatalf("%v/%d moments = %+v, want bit-identical %+v", pol, shards, got, ref)
			}
			f, _, err := st.Freq("x")
			if err != nil {
				t.Fatal(err)
			}
			if len(f) != len(refFreq) {
				t.Fatalf("freq has %d values, want %d", len(f), len(refFreq))
			}
			for v, c := range refFreq {
				if f[v] != c {
					t.Fatalf("freq[%v] = %d, want %d", v, f[v], c)
				}
			}
			mat, mrep, err := st.Materialize()
			if err != nil || mrep.Degraded() {
				t.Fatalf("materialize: %v (%s)", err, mrep)
			}
			if mat.Rows() != rows {
				t.Fatalf("materialized %d rows, want %d", mat.Rows(), rows)
			}
			for i := 0; i < rows; i += 379 {
				for c := 0; c < 2; c++ {
					a, b := mat.Cell(i, c), ds.Cell(i, c)
					if a.String() != b.String() {
						t.Fatalf("row %d col %d = %v, want %v", i, c, a, b)
					}
				}
			}
		}
	}
}

// faultedStore builds a 4-shard store whose shard 1 device injects
// faults per cfg once enabled; injection is disabled during loading.
func faultedStore(t *testing.T, ds *dataset.Dataset, fcfg storage.FaultConfig, cfg Config) (*Store, *storage.FaultDevice) {
	t.Helper()
	cfg.Shards = 4
	fd := storage.NewFaultDevice(storage.NewMemDevice(storage.DefaultDiskCost()), fcfg)
	fd.SetDisabled(true)
	cfg.Devices = []storage.Device{nil, fd, nil, nil}
	st, err := New("t", ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st, fd
}

func TestDegradedFallsBackToStalePartials(t *testing.T) {
	const rows, chunk = 6000, 512
	ds := testDataset(t, rows)
	reg := obs.NewRegistry()
	obs.RegisterBaseline(reg)
	st, fd := faultedStore(t, ds, storage.FaultConfig{Seed: 7, ReadTransientRate: 1},
		Config{Chunk: chunk, PoolPages: 4, Registry: reg})
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	wantGen := st.Info()[1].CkptGen
	fd.SetDisabled(false)

	healthy, err := New("t", ds, Config{Shards: 1, Chunk: chunk})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := healthy.Moments("x")
	if err != nil {
		t.Fatal(err)
	}

	got, rep, err := st.Moments("x")
	if err != nil {
		t.Fatalf("degraded read must not error: %v", err)
	}
	if !rep.Degraded() || len(rep.Stale) != 1 || rep.Stale[0] != 1 {
		t.Fatalf("report = %s, want shard 1 stale", rep)
	}
	if rep.StaleGens[1] != wantGen {
		t.Fatalf("stale generation = %d, want %d", rep.StaleGens[1], wantGen)
	}
	if rep.RowsMissing != 0 {
		t.Fatalf("rows missing = %d with a checkpoint present", rep.RowsMissing)
	}
	// The stale partial predates no updates, so every observation is
	// still accounted for (merge order differs; counts must not).
	if got.N != ref.N || got.Missing != ref.Missing || got.Min != ref.Min || got.Max != ref.Max {
		t.Fatalf("degraded moments = %+v, want same support as %+v", got, ref)
	}
	if st.Health(1) == Healthy {
		t.Fatal("shard 1 still healthy after failing")
	}
	if v := reg.Counter(obs.MShardDegraded).Value(); v == 0 {
		t.Fatal("shard.degraded counter did not move")
	}
	if v := reg.Counter(obs.MShardStalePartials).Value(); v == 0 {
		t.Fatal("shard.stale_partials counter did not move")
	}
}

func TestDegradedWithoutCheckpointReportsRowsMissing(t *testing.T) {
	const rows, chunk = 6000, 512
	ds := testDataset(t, rows)
	st, fd := faultedStore(t, ds, storage.FaultConfig{Seed: 7, ReadTransientRate: 1},
		Config{Chunk: chunk, PoolPages: 4})
	fd.SetDisabled(false)

	got, rep, err := st.Moments("x")
	if err != nil {
		t.Fatalf("degraded read must not error: %v", err)
	}
	wantMissing := st.Info()[1].Rows
	if len(rep.Missing) != 1 || rep.Missing[0] != 1 || rep.RowsMissing != wantMissing {
		t.Fatalf("report = %s, want shard 1 missing %d rows", rep, wantMissing)
	}
	if got.N+got.Missing != int64(rows-wantMissing) {
		t.Fatalf("partial answer covers %d rows, want %d", got.N+got.Missing, rows-wantMissing)
	}

	mat, mrep, err := st.Materialize()
	if err != nil {
		t.Fatalf("degraded materialize must not error: %v", err)
	}
	if mat.Rows() != rows-wantMissing || mrep.RowsMissing != wantMissing {
		t.Fatalf("materialized %d rows (report %s), want %d", mat.Rows(), mrep, rows-wantMissing)
	}
}

func TestDownShardFastFails(t *testing.T) {
	const rows, chunk = 4000, 512
	ds := testDataset(t, rows)
	st, fd := faultedStore(t, ds, storage.FaultConfig{Seed: 3, ReadTransientRate: 1},
		Config{Chunk: chunk, PoolPages: 4, DownThreshold: 2})
	fd.SetDisabled(false)

	for i := 0; i < 2; i++ {
		if _, _, err := st.Moments("x"); err != nil {
			t.Fatal(err)
		}
	}
	if h := st.Health(1); h != Down {
		t.Fatalf("health after 2 failures = %v, want down", h)
	}
	before := st.Info()[1].DevTicks
	if _, rep, err := st.Moments("x"); err != nil || len(rep.Missing) != 1 {
		t.Fatalf("down read: %v (%s)", err, rep)
	}
	if after := st.Info()[1].DevTicks; after != before {
		t.Fatalf("down shard did %d ticks of I/O; fast-fail must skip the device", after-before)
	}

	fd.SetDisabled(true)
	st.SetDown(1, false)
	if _, rep, err := st.Moments("x"); err != nil || rep.Degraded() {
		t.Fatalf("revived read: %v (%s)", err, rep)
	}
	if h := st.Health(1); h != Healthy {
		t.Fatalf("health after revive = %v", h)
	}
}

func TestOpTickBudgetTimesOut(t *testing.T) {
	const rows, chunk = 4000, 512
	ds := testDataset(t, rows)
	st, err := New("t", ds, Config{Shards: 4, Chunk: chunk, PoolPages: 2, OpTickBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := st.Moments("x")
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("all-timeout scatter error = %v, want ErrShardDown", err)
	}
	if rep.Timeouts != 4 || len(rep.Answered) != 0 {
		t.Fatalf("report = %s, want 4 timeouts", rep)
	}

	// With checkpointed partials the same total outage degrades instead.
	st2, err := New("t", ds, Config{Shards: 4, Chunk: chunk, PoolPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st2.budget = 1
	got, rep, err := st2.Moments("x")
	if err != nil {
		t.Fatalf("stale fallback errored: %v", err)
	}
	if len(rep.Stale) != 4 || rep.RowsMissing != 0 {
		t.Fatalf("report = %s, want 4 stale shards", rep)
	}
	if got.N+got.Missing != rows {
		t.Fatalf("stale answer covers %d rows, want %d", got.N+got.Missing, rows)
	}
}

func TestConcurrentScatterGatherUnderFaults(t *testing.T) {
	const rows, chunk = 6000, 512
	ds := testDataset(t, rows)
	reg := obs.NewRegistry()
	st, fd := faultedStore(t, ds, storage.FaultConfig{Seed: 11, ReadTransientRate: 0.12},
		Config{Chunk: chunk, PoolPages: 4, Workers: 2, Registry: reg, DownThreshold: 64})
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fd.SetDisabled(false)

	ref, _, err := st.Moments("x")
	if err != nil {
		t.Fatal(err)
	}
	// The continuous profiler rides the same storm: every worker folds
	// the completed scatter trees into one shared ring while a reader
	// merges and renders — the /profilez path against concurrent
	// degraded queries (this test runs under `make race`).
	tr := obs.NewTracer()
	st.SetTracer(tr)
	ring := obs.NewProfileRing(16)
	profDone := make(chan struct{})
	profReader := make(chan struct{})
	go func() {
		defer close(profReader)
		for {
			select {
			case <-profDone:
				return
			default:
			}
			for _, v := range ring.Verbs() {
				_ = ring.Merged(v)
			}
			var b strings.Builder
			_ = ring.WriteText(&b, 5)
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				m, rep, err := st.Moments("x")
				if err != nil {
					errs <- fmt.Errorf("worker %d moments: %v", g, err)
					return
				}
				for _, root := range tr.Recent() {
					ring.Add("compute", obs.FoldSpan(root))
				}
				// Transient faults recover inside the pool; a degraded
				// answer (stale fallback) is also legitimate. Either way
				// the support must be complete.
				if m.N+m.Missing != ref.N+ref.Missing && rep.RowsMissing == 0 {
					errs <- fmt.Errorf("worker %d: support %d, want %d (%s)", g, m.N+m.Missing, ref.N+ref.Missing, rep)
					return
				}
				if _, _, err := st.Freq("g"); err != nil {
					errs <- fmt.Errorf("worker %d freq: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(profDone)
	<-profReader
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Concurrent queries interleave on one tracer stack, so in-storm
	// roots may surface late or merge into one tree (attribution
	// degrades, never safety). One serial query after the storm always
	// emits a root, so the final fold is deterministic.
	if _, _, err := st.Moments("x"); err != nil {
		t.Fatal(err)
	}
	for _, root := range tr.Recent() {
		ring.Add("compute", obs.FoldSpan(root))
	}
	if merged := ring.Merged("compute"); merged.Queries == 0 {
		t.Error("hammer folded no profiles into the ring")
	}
}

// TestScatterStitchesShardSpans pins the cross-shard span stitching: a
// scatter-gather query yields one "shard.scatter" root whose children
// are the per-shard worker spans in shard order, each charging exactly
// its device ticks — so the children sum to the root total — and two
// identically built stores render bit-identical trees regardless of
// worker scheduling.
func TestScatterStitchesShardSpans(t *testing.T) {
	const rows, chunk = 6000, 512
	ds := testDataset(t, rows)
	run := func() (*obs.Span, string) {
		st, err := New("t", ds, Config{Shards: 4, Chunk: chunk, PoolPages: 4})
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer()
		st.SetTracer(tr)
		if _, _, err := st.Moments("x"); err != nil {
			t.Fatal(err)
		}
		roots := tr.Recent()
		if len(roots) != 1 {
			t.Fatalf("recent roots = %d, want 1", len(roots))
		}
		var b strings.Builder
		if err := obs.WriteTree(&b, roots[0]); err != nil {
			t.Fatal(err)
		}
		return roots[0], b.String()
	}
	root, tree := run()
	if root.Name() != "shard.scatter" {
		t.Fatalf("root = %s, want shard.scatter", root.Name())
	}
	kids := root.Children()
	if len(kids) != 4 {
		t.Fatalf("root has %d children, want one per shard:\n%s", len(kids), tree)
	}
	var sum int64
	for i, k := range kids {
		if want := fmt.Sprintf("shard%d", i); k.Name() != want {
			t.Errorf("child %d = %s, want %s (join order = shard order)", i, k.Name(), want)
		}
		if k.Total() <= 0 {
			t.Errorf("shard %d charged %d ticks, want > 0 (cold pool)", i, k.Total())
		}
		sum += k.Total()
		attrs := map[string]string{}
		for _, a := range k.Attrs() {
			attrs[a.Key] = a.Value
		}
		if attrs["health"] != "healthy" {
			t.Errorf("shard %d health attr = %q", i, attrs["health"])
		}
		if attrs["ticks"] == "" || attrs["pages"] == "" {
			t.Errorf("shard %d missing ticks/pages attrs: %v", i, attrs)
		}
		if len(k.Children()) == 0 {
			t.Errorf("shard %d has no per-range spans", i)
		}
	}
	// The acceptance invariant: per-shard children account for the whole
	// query exactly — scatter itself charges nothing.
	if sum != root.Total() {
		t.Errorf("shard children sum %d != root total %d:\n%s", sum, root.Total(), tree)
	}
	if _, again := run(); again != tree {
		t.Errorf("stitched tree varies across identical runs:\n%s\nvs\n%s", tree, again)
	}
}

// TestScatterSpansUnderFaults checks the stitched tree's fault
// vocabulary: a faulted shard's span carries its retry and error
// attrs, and once Down the shard appears as a zero-tick fast-fail
// child recorded by the coordinator.
func TestScatterSpansUnderFaults(t *testing.T) {
	const rows, chunk = 6000, 512
	ds := testDataset(t, rows)
	st, fd := faultedStore(t, ds, storage.FaultConfig{Seed: 17, ReadTransientRate: 1},
		Config{Chunk: chunk, PoolPages: 4, DownThreshold: 1})
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	st.SetTracer(tr)
	fd.SetDisabled(false)

	attrsOf := func(root *obs.Span, i int) map[string]string {
		m := map[string]string{}
		for _, a := range root.Children()[i].Attrs() {
			m[a.Key] = a.Value
		}
		return m
	}
	if _, rep, err := st.Moments("x"); err != nil || !rep.Degraded() {
		t.Fatalf("first faulted query: %v (%s)", err, rep)
	}
	roots := tr.Recent()
	first := roots[len(roots)-1]
	a1 := attrsOf(first, 1)
	if a1["retries"] != "1" || a1["err"] == "" {
		t.Errorf("faulted shard attrs = %v, want retries=1 and err", a1)
	}

	if _, rep, err := st.Moments("x"); err != nil || !rep.Degraded() {
		t.Fatalf("down-shard query: %v (%s)", err, rep)
	}
	roots = tr.Recent()
	second := roots[len(roots)-1]
	if len(second.Children()) != 4 {
		t.Fatalf("down-shard tree has %d children, want the fast-fail recorded", len(second.Children()))
	}
	a2 := attrsOf(second, 1)
	if a2["ticks"] != "0" || a2["health"] != "down" || a2["err"] == "" {
		t.Errorf("down shard attrs = %v, want zero-tick down fast-fail", a2)
	}
	var sum int64
	for _, k := range second.Children() {
		sum += k.Total()
	}
	if sum != second.Total() {
		t.Errorf("degraded children sum %d != root total %d", sum, second.Total())
	}
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	const rows, chunk = 4000, 512
	ds := testDataset(t, rows)
	manDev := storage.NewMemDevice(storage.DefaultDiskCost())
	st, err := New("t", ds, Config{Shards: 3, Chunk: chunk, ManifestDevice: manDev})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	man, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if man.View != "t" || man.Rows != rows || len(man.Shards) != 3 {
		t.Fatalf("manifest = %+v", man)
	}

	db, rep, gen, err := RestorePartials(manDev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped != 0 || rep.CorruptPages != 0 {
		t.Fatalf("restore report = %s", rep)
	}
	if gen != 2 {
		t.Fatalf("restored generation = %d, want 2 (create + checkpoint)", gen)
	}
	r, ok := db.Lookup(fnManifest, "t")
	if !ok {
		t.Fatal("restored DB has no manifest")
	}
	man2, err := DecodeManifest([]byte(r.Text))
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range man2.Shards {
		if sh.Gen != 2 {
			t.Fatalf("shard %d checkpoint gen = %d, want 2", i, sh.Gen)
		}
	}
	if _, ok := db.Lookup(fnMoments, shardAttr("x", 0)...); !ok {
		t.Fatal("restored DB has no moments partial for shard 0")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{
		View: "census", Rows: 10000, Chunk: 512, Policy: PlaceRange,
		Shards: []ManifestShard{
			{Rows: 5120, Gen: 4, Chunks: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
			{Rows: 4880, Gen: 7, Chunks: []int{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}},
		},
	}
	buf := EncodeManifest(m)
	got, err := DecodeManifest(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.View != m.View || got.Rows != m.Rows || got.Chunk != m.Chunk || got.Policy != m.Policy {
		t.Fatalf("decoded = %+v", got)
	}
	for i := range m.Shards {
		if got.Shards[i].Gen != m.Shards[i].Gen || len(got.Shards[i].Chunks) != len(m.Shards[i].Chunks) {
			t.Fatalf("shard %d = %+v, want %+v", i, got.Shards[i], m.Shards[i])
		}
	}

	// Any single-byte damage must surface as ErrCorrupt.
	for i := range buf {
		bad := append([]byte(nil), buf...)
		bad[i] ^= 0x40
		if _, err := DecodeManifest(bad); err != nil && !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("flip at %d: error %v does not wrap ErrCorrupt", i, err)
		}
	}
	for i := 0; i < len(buf); i += 7 {
		if _, err := DecodeManifest(buf[:i]); !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("truncation to %d: %v", i, err)
		}
	}
}
