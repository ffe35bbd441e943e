package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"statdb/internal/dataset"
	"statdb/internal/exec"
	"statdb/internal/obs"
	"statdb/internal/storage"
	"statdb/internal/summary"
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
			if err := ds.SetCell(i, 0, dataset.Null); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ds
}

func TestHealthyPathBitIdentical(t *testing.T) {
	const rows = 64000
	ds := testDataset(t, rows)
	xs, valid, err := ds.NumericByName("x")
	if err != nil {
		t.Fatal(err)
	}
	ref := exec.ColumnMoments(exec.New(4), xs, valid, exec.DefaultChunk)
	_, refFreq := exec.ColumnFold(exec.New(4), xs, valid, exec.DefaultChunk, false, true)

	for _, shards := range []int{1, 2, 4, 5} {
		st, err := New("t", ds, Config{Shards: shards})
		if err != nil {
			t.Fatalf("%d: %v", shards, err)
		}
		got, rep, err := st.Moments("x")
		if err != nil {
			t.Fatalf("%d moments: %v", shards, err)
		}
		if rep.Degraded() || len(rep.Answered) != shards {
			t.Fatalf("%d healthy report = %s", shards, rep)
		}
		if got != ref {
			t.Fatalf("%d moments = %+v, want bit-identical %+v", shards, got, ref)
		}
		f, _, err := st.Freq("x")
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(f.Values, refFreq.Values) || !slices.Equal(f.Counts, refFreq.Counts) {
			t.Fatalf("freq has %d values, want the unsharded fold's %d bit for bit", len(f.Values), len(refFreq.Values))
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
	const rows = 48000
	ds := testDataset(t, rows)
	reg := obs.NewRegistry()
	obs.RegisterBaseline(reg)
	st, fd := faultedStore(t, ds, storage.FaultConfig{Seed: 7, ReadTransientRate: 1},
		Config{PoolPages: 4, Registry: reg})
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	wantGen := st.Info()[1].CkptGen
	fd.SetDisabled(false)

	healthy, err := New("t", ds, Config{Shards: 1})
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
	if v := reg.Counter(obs.MShardDegraded).Value(); v != 1 {
		t.Fatalf("shard.degraded = %d, want 1 (one degraded answer)", v)
	}
	if v := reg.Counter(obs.MShardStalePartials).Value(); v != 1 {
		t.Fatalf("shard.stale_partials = %d, want 1 (shard 1's partial)", v)
	}
	// Every read of shard 1 fails, so its op was retried once.
	if v := reg.Counter(obs.MShardRetries).Value(); v != int64(rep.Retries) || v != 1 {
		t.Fatalf("shard.retries = %d, report says %d, want 1", v, rep.Retries)
	}
}

// TestDecodeFreqRejectsBadVectors: a checkpointed frequency table
// decodes only as a table encodes — values strictly ascending in
// cmp.Compare order, each with a positive integral count. Anything else
// is corrupt, and a down shard whose checkpointed table is corrupt counts
// as missing, not stale.
func TestDecodeFreqRejectsBadVectors(t *testing.T) {
	nan := math.NaN()
	good := exec.FoldFreq([]float64{2, nan, math.Inf(1), -1, 0, math.Inf(-1), 0}, nil)
	if got, err := decodeFreq(encodeFreq(good)); err != nil || !slices.Equal(got.Counts, good.Counts) ||
		!slices.EqualFunc(got.Values, good.Values, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Fatalf("round trip = %v %v (%v), want %v %v", got.Values, got.Counts, err, good.Values, good.Counts)
	}
	for _, tc := range []struct {
		name string
		v    []float64
	}{
		{"odd length", []float64{1, 2, 3}},
		{"descending", []float64{2, 1, 1, 1}},
		{"repeated value", []float64{1, 1, 1, 2}},
		{"zero after zero", []float64{0, 1, math.Copysign(0, -1), 1}},
		{"NaN after a number", []float64{1, 1, nan, 1}},
		{"two NaNs", []float64{nan, 1, nan, 1}},
		{"zero count", []float64{1, 0}},
		{"negative count", []float64{1, -2}},
		{"fractional count", []float64{1, 1.5}},
		{"NaN count", []float64{1, nan}},
		{"infinite count", []float64{1, math.Inf(1)}},
	} {
		if got, err := decodeFreq(tc.v); !errors.Is(err, storage.ErrCorrupt) {
			t.Errorf("%s: decodeFreq = %v %v (%v), want storage.ErrCorrupt", tc.name, got.Values, got.Counts, err)
		}
	}

	st, fd := faultedStore(t, testDataset(t, 48000), storage.FaultConfig{Seed: 7, ReadTransientRate: 1}, Config{PoolPages: 4})
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fd.SetDisabled(false)
	if _, rep, err := st.Freq("g"); err != nil || len(rep.Stale) != 1 || rep.Stale[0] != 1 || len(rep.Missing) != 0 {
		t.Fatalf("report = %s (%v), want shard 1 stale", rep, err)
	}
	st.partials.StoreCustom(fnFreq, shardAttr("g", 1), summary.VectorOf([]float64{3, 1, 2, 1}))
	if _, rep, err := st.Freq("g"); err != nil || len(rep.Stale) != 0 || len(rep.Missing) != 1 || rep.Missing[0] != 1 {
		t.Fatalf("report = %s (%v), want shard 1 missing behind its corrupt checkpoint", rep, err)
	}
}

func TestDegradedWithoutCheckpointReportsRowsMissing(t *testing.T) {
	const rows = 48000
	ds := testDataset(t, rows)
	reg := obs.NewRegistry()
	st, fd := faultedStore(t, ds, storage.FaultConfig{Seed: 7, ReadTransientRate: 1},
		Config{PoolPages: 4, Registry: reg})
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
	if v := reg.Counter(obs.MShardRowsMissing).Value(); v != int64(rep.RowsMissing) {
		t.Fatalf("shard.rows_missing = %d, report says %d", v, rep.RowsMissing)
	}

	mat, mrep, err := st.Materialize()
	if err != nil {
		t.Fatalf("degraded materialize must not error: %v", err)
	}
	if mat.Rows() != rows-wantMissing || mrep.RowsMissing != wantMissing {
		t.Fatalf("materialized %d rows (report %s), want %d", mat.Rows(), mrep, rows-wantMissing)
	}
	if v := reg.Counter(obs.MShardRowsMissing).Value(); v != int64(rep.RowsMissing+mrep.RowsMissing) {
		t.Fatalf("shard.rows_missing = %d after both reads, reports say %d", v, rep.RowsMissing+mrep.RowsMissing)
	}
}

func TestDownShardFastFails(t *testing.T) {
	const rows = 32000
	ds := testDataset(t, rows)
	reg := obs.NewRegistry()
	st, fd := faultedStore(t, ds, storage.FaultConfig{Seed: 3, ReadTransientRate: 1},
		Config{PoolPages: 4, Registry: reg})
	fd.SetDisabled(false)
	failures := reg.Counter(obs.MShardFailures)
	down := reg.Gauge(obs.MShardDown)

	for i := 0; i < 2; i++ {
		if _, _, err := st.Moments("x"); err != nil {
			t.Fatal(err)
		}
	}
	if h := st.Health(1); h != Down {
		t.Fatalf("health after 2 failures = %v, want down", h)
	}
	if f, d := failures.Value(), down.Value(); f != 2 || d != 1 {
		t.Fatalf("shard.failures = %d, shard.down = %d after 2 failed ops; want 2 and 1", f, d)
	}
	before := st.Info()[1].DevTicks
	if _, rep, err := st.Moments("x"); err != nil || len(rep.Missing) != 1 {
		t.Fatalf("down read: %v (%s)", err, rep)
	}
	if after := st.Info()[1].DevTicks; after != before {
		t.Fatalf("down shard did %d ticks of I/O; fast-fail must skip the device", after-before)
	}
	if f := failures.Value(); f != 2 {
		t.Fatalf("shard.failures = %d after a fast-fail, want 2: a skipped shard is not a failed op", f)
	}

	fd.SetDisabled(true)
	st.SetDown(1, false)
	if _, rep, err := st.Moments("x"); err != nil || rep.Degraded() {
		t.Fatalf("revived read: %v (%s)", err, rep)
	}
	if h := st.Health(1); h != Healthy {
		t.Fatalf("health after revive = %v", h)
	}
	if f, d := failures.Value(), down.Value(); f != 2 || d != 0 {
		t.Fatalf("shard.failures = %d, shard.down = %d after revive; want 2 and 0", f, d)
	}
}

// TestTotalOutageFallsBackToCheckpoint: with every shard down and no
// checkpoint, nothing can answer, so the gather returns ErrShardDown;
// with checkpointed partials the same outage answers stale from every
// shard, covering every row.
func TestTotalOutageFallsBackToCheckpoint(t *testing.T) {
	const rows = 32000
	ds := testDataset(t, rows)
	outage := func(checkpoint bool) (exec.Moments, Report, error) {
		st, err := New("t", ds, Config{Shards: 4, PoolPages: 2})
		if err != nil {
			t.Fatal(err)
		}
		if checkpoint {
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			st.SetDown(i, true)
		}
		return st.Moments("x")
	}
	_, rep, err := outage(false)
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("total outage error = %v, want ErrShardDown", err)
	}
	if len(rep.Answered) != 0 || len(rep.Missing) != 4 || rep.RowsMissing != rows {
		t.Fatalf("report = %s, want 4 shards missing every row", rep)
	}

	got, rep, err := outage(true)
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
	const rows = 48000
	ds := testDataset(t, rows)
	reg := obs.NewRegistry()
	st, fd := faultedStore(t, ds, storage.FaultConfig{Seed: 11, ReadTransientRate: 0.12},
		Config{PoolPages: 4, Registry: reg})
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
	const rows = 48000
	ds := testDataset(t, rows)
	run := func() (*obs.Span, string) {
		st, err := New("t", ds, Config{Shards: 4, PoolPages: 4})
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
	if root.Node().Name != "shard.scatter" {
		t.Fatalf("root = %s, want shard.scatter", root.Node().Name)
	}
	kids := root.Node().Children
	if len(kids) != 4 {
		t.Fatalf("root has %d children, want one per shard:\n%s", len(kids), tree)
	}
	var sum int64
	for i, k := range kids {
		if want := fmt.Sprintf("shard%d", i); k.Node().Name != want {
			t.Errorf("child %d = %s, want %s (join order = shard order)", i, k.Node().Name, want)
		}
		if k.Total() <= 0 {
			t.Errorf("shard %d charged %d ticks, want > 0 (cold pool)", i, k.Total())
		}
		sum += k.Total()
		attrs := map[string]string{}
		for _, a := range k.Node().Attrs {
			attrs[a.Key] = a.Value
		}
		if attrs["health"] != "healthy" {
			t.Errorf("shard %d health attr = %q", i, attrs["health"])
		}
		if attrs["ticks"] == "" || attrs["pages"] == "" {
			t.Errorf("shard %d missing ticks/pages attrs: %v", i, attrs)
		}
		if len(k.Node().Children) == 0 {
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
// attrs, and once Down (its second failed op) the shard appears as a
// zero-tick fast-fail child recorded by the coordinator.
func TestScatterSpansUnderFaults(t *testing.T) {
	const rows = 48000
	ds := testDataset(t, rows)
	st, fd := faultedStore(t, ds, storage.FaultConfig{Seed: 17, ReadTransientRate: 1},
		Config{PoolPages: 4})
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	st.SetTracer(tr)
	fd.SetDisabled(false)

	attrsOf := func(root *obs.Span, i int) map[string]string {
		m := map[string]string{}
		for _, a := range root.Node().Children[i].Node().Attrs {
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
	if _, _, err := st.Moments("x"); err != nil || st.Health(1) != Down {
		t.Fatalf("second faulted query: %v, shard 1 %v", err, st.Health(1))
	}

	if _, rep, err := st.Moments("x"); err != nil || !rep.Degraded() {
		t.Fatalf("down-shard query: %v (%s)", err, rep)
	}
	roots = tr.Recent()
	second := roots[len(roots)-1]
	if len(second.Node().Children) != 4 {
		t.Fatalf("down-shard tree has %d children, want the fast-fail recorded", len(second.Node().Children))
	}
	a2 := attrsOf(second, 1)
	if a2["ticks"] != "0" || a2["health"] != "down" || a2["err"] == "" {
		t.Errorf("down shard attrs = %v, want zero-tick down fast-fail", a2)
	}
	var sum int64
	for _, k := range second.Node().Children {
		sum += k.Total()
	}
	if sum != second.Total() {
		t.Errorf("degraded children sum %d != root total %d", sum, second.Total())
	}
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	const rows = 32000
	ds := testDataset(t, rows)
	manDev := storage.NewMemDevice(storage.DefaultDiskCost())
	st, err := New("t", ds, Config{Shards: 3, ManifestDevice: manDev})
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

// TestCheckpointSkipsADownShard0: which columns a checkpoint aggregates
// comes from the schema, not from reading shard 0. With shard 0 down on
// a faulting device, the checkpoint touches none of its pages and still
// stores every other shard's partials, so a later outage of shard 1
// answers from its stale partial.
func TestCheckpointSkipsADownShard0(t *testing.T) {
	const rows = 48000
	ds := testDataset(t, rows)
	fd := storage.NewFaultDevice(storage.NewMemDevice(storage.DefaultDiskCost()),
		storage.FaultConfig{Seed: 7, ReadTransientRate: 1})
	fd.SetDisabled(true)
	st, err := New("t", ds, Config{Shards: 4, PoolPages: 4, Devices: []storage.Device{fd, nil, nil, nil}})
	if err != nil {
		t.Fatal(err)
	}
	fd.SetDisabled(false)
	st.SetDown(0, true)
	before := st.Info()[0].DevTicks
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if after := st.Info()[0].DevTicks; after != before {
		t.Fatalf("checkpoint spent %d ticks on down shard 0", after-before)
	}
	for i := 1; i < 4; i++ {
		for _, col := range []string{"x", "g"} {
			if _, ok := st.partials.Lookup(fnMoments, shardAttr(col, i)...); !ok {
				t.Fatalf("no moments partial of %s for shard %d", col, i)
			}
		}
	}
	st.SetDown(1, true)
	_, rep, err := st.Moments("x")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stale) != 1 || rep.Stale[0] != 1 || len(rep.Missing) != 1 || rep.Missing[0] != 0 ||
		rep.RowsMissing != st.Info()[0].Rows {
		t.Fatalf("report = %s, want shard 1 stale and only shard 0 missing", rep)
	}
}

// TestCheckpointPartialsAreShardFolds: a shard's checkpointed partials
// are its chunk states merged in chunk order — the moments bit for bit
// the fold of the shard's rows on exec's grid, and the table the one
// exec.FoldFreq tabulates over them.
func TestCheckpointPartialsAreShardFolds(t *testing.T) {
	st, err := New("t", testDataset(t, 48000), Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i, sh := range st.shards {
		xs, valid, err := sh.file.NumericColumn("g")
		if err != nil {
			t.Fatal(err)
		}
		got, _, ok := st.stalePartial("g", i, true, true)
		if !ok {
			t.Fatalf("shard %d has no partial of g", i)
		}
		if want := exec.ColumnMoments(nil, xs, valid, exec.DefaultChunk); got.Moments != want {
			t.Errorf("shard %d moments partial = %+v, want %+v", i, got.Moments, want)
		}
		want := exec.FoldFreq(xs, valid)
		if !slices.Equal(got.Freq.Values, want.Values) || !slices.Equal(got.Freq.Counts, want.Counts) {
			t.Errorf("shard %d freq partial = %v %v, want %v %v", i, got.Freq.Values, got.Freq.Counts, want.Values, want.Counts)
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{
		View: "census", Rows: 10000, Chunk: 512,
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
	if got.View != m.View || got.Rows != m.Rows || got.Chunk != m.Chunk {
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

// Manifest returns the store's current manifest (decoded from the
// partials DB, so it reflects the last checkpointed generation set).
func (s *Store) Manifest() (*Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.partials.Lookup(fnManifest, s.name)
	if !ok {
		return nil, corruptf("no manifest entry for view %q", s.name)
	}
	return DecodeManifest([]byte(r.Text))
}

// takeUvarint decodes one uvarint, bounding it by limit so a damaged
// length can never drive an oversized allocation.
func takeUvarint(buf []byte, limit uint64, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, corruptf("truncated %s", what)
	}
	if v > limit {
		return 0, nil, corruptf("%s %d out of range", what, v)
	}
	return v, buf[n:], nil
}

// DecodeManifest parses EncodeManifest's output, verifying the CRC and
// every structural invariant. All failures wrap storage.ErrCorrupt.
func DecodeManifest(buf []byte) (*Manifest, error) {
	if len(buf) < 4+1+4 {
		return nil, corruptf("short input (%d bytes)", len(buf))
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if crc32.Checksum(body, manifestTable) != binary.LittleEndian.Uint32(tail) {
		return nil, corruptf("checksum mismatch")
	}
	if binary.LittleEndian.Uint32(body[:4]) != manifestMagic {
		return nil, corruptf("bad magic")
	}
	if body[4] != manifestVersion {
		return nil, corruptf("unsupported version %d", body[4])
	}
	rest := body[5:]
	nameLen, rest, err := takeUvarint(rest, uint64(len(rest)), "view name length")
	if err != nil {
		return nil, err
	}
	m := &Manifest{View: string(rest[:nameLen])}
	rest = rest[nameLen:]
	rows, rest, err := takeUvarint(rest, 1<<40, "row count")
	if err != nil {
		return nil, err
	}
	m.Rows = int(rows)
	chunk, rest, err := takeUvarint(rest, 1<<32, "chunk size")
	if err != nil {
		return nil, err
	}
	if chunk == 0 {
		return nil, corruptf("zero chunk size")
	}
	m.Chunk = int(chunk)
	numChunks := (m.Rows + m.Chunk - 1) / m.Chunk
	nShards, rest, err := takeUvarint(rest, uint64(len(rest))+1, "shard count")
	if err != nil {
		return nil, err
	}
	if nShards == 0 {
		return nil, corruptf("zero shards")
	}
	seen := 0
	for i := uint64(0); i < nShards; i++ {
		var sh ManifestShard
		var v uint64
		if v, rest, err = takeUvarint(rest, uint64(m.Rows), "shard rows"); err != nil {
			return nil, err
		}
		sh.Rows = int(v)
		if sh.Gen, rest, err = takeUvarint(rest, 1<<62, "generation"); err != nil {
			return nil, err
		}
		var nc uint64
		if nc, rest, err = takeUvarint(rest, uint64(numChunks), "chunk count"); err != nil {
			return nil, err
		}
		prev, first := 0, true
		for j := uint64(0); j < nc; j++ {
			var d uint64
			if d, rest, err = takeUvarint(rest, uint64(numChunks), "chunk delta"); err != nil {
				return nil, err
			}
			c := prev + int(d)
			if !first && d == 0 {
				return nil, corruptf("non-ascending chunk index %d", c)
			}
			if c >= numChunks {
				return nil, corruptf("chunk index %d beyond %d chunks", c, numChunks)
			}
			sh.Chunks = append(sh.Chunks, c)
			prev, first = c, false
		}
		seen += len(sh.Chunks)
		m.Shards = append(m.Shards, sh)
	}
	if len(rest) != 0 {
		return nil, corruptf("%d trailing bytes", len(rest))
	}
	if seen != numChunks {
		return nil, corruptf("%d chunks placed, want %d", seen, numChunks)
	}
	return m, nil
}

// New gathers each shard's chunk rows and Materialize appends them back
// a column at a time in chunk order: the view round-trips exactly —
// NaN, ±0, nulls and strings, at every shard count, empty shards
// included.
func TestNewMaterializeRoundTrip(t *testing.T) {
	ds := dataset.New(dataset.MustSchema(
		dataset.Attribute{Name: "x", Kind: dataset.KindFloat},
		dataset.Attribute{Name: "g", Kind: dataset.KindInt},
		dataset.Attribute{Name: "s", Kind: dataset.KindString},
	))
	floats := []float64{math.NaN(), 0, math.Copysign(0, -1), 2.5, math.Inf(-1)}
	rows := 3*exec.DefaultChunk + 123
	for i := 0; i < rows; i++ {
		row := dataset.Row{dataset.Float(floats[i%5]), dataset.Int(int64(i)), dataset.String(fmt.Sprint(i % 11))}
		if i%13 == 0 {
			row[i%3] = dataset.Null
		}
		if err := ds.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	encode := func(ds *dataset.Dataset) []byte {
		var out []byte
		enc := storage.RecordEncoder(ds)
		for i := 0; i < ds.Rows(); i++ {
			out = enc(out, i)
		}
		return out
	}
	want := encode(ds)
	for _, shards := range []int{1, 3, 6} {
		st, err := New("rt", ds, Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		stored := 0
		for _, sh := range st.shards {
			g, _, err := sh.file.NumericColumn("g")
			if err != nil {
				t.Fatal(err)
			}
			stored += len(g)
		}
		if stored != rows {
			t.Fatalf("%d: shards store %d rows, want %d", shards, stored, rows)
		}
		got, rep, err := st.Materialize()
		if err != nil || rep.Degraded() {
			t.Fatalf("%d: %v (%s)", shards, err, rep)
		}
		if !got.Schema().Equal(ds.Schema()) || got.Rows() != rows ||
			!slices.Equal(encode(got), want) {
			t.Fatalf("%d: materialized view differs from the source", shards)
		}
	}
}
