package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"statdb/internal/colstore"
	"statdb/internal/dataset"
	"statdb/internal/exec"
	"statdb/internal/incr"
	"statdb/internal/index"
	"statdb/internal/medwin"
	"statdb/internal/obs"
	"statdb/internal/query"
	"statdb/internal/relalg"
	"statdb/internal/rules"
	"statdb/internal/shard"
	"statdb/internal/stats"
	"statdb/internal/storage"
	"statdb/internal/summary"
	"statdb/internal/tape"
)

// The ladder times the calls into each layer's public functions from
// outside, on the traced workload's own data, one rung per call. A rung
// is a child of the rung whose call contains it, so a layer's self time
// is its rung minus the rungs beneath it (README lists each
// subtraction). Nothing inside the program is instrumented.

type ladder struct {
	tr    *tracer
	slice time.Duration // measuring time per rung
	out   map[string]float64
	err   error // first rung error
}

// cost is one rung's per-operation result.
type cost struct{ ns, allocs, bytes float64 }

const (
	minBatches = 3
	maxBatches = 64
)

// rung times fn in batches of `inner` calls until the rung's slice is
// spent (at least minBatches, at most `batches` when > 0) and records
// the median batch as ns per operation; ops is how many operations one
// call of fn performs. Allocations are taken over all batches.
func (l *ladder) rung(name, parent string, inner int, ops float64, batches int, fn func() error) cost {
	if l.err != nil {
		return cost{}
	}
	if batches <= 0 || batches > maxBatches {
		batches = maxBatches
	}
	if err := fn(); err != nil { // warm, and fail before measuring
		l.err = fmt.Errorf("rung %s: %w", name, err)
		return cost{}
	}
	var m0, m1 runtime.MemStats
	var perOp []float64
	calls := 0
	start := time.Now()
	runtime.ReadMemStats(&m0)
	for b := 0; b < batches && (b < minBatches || time.Since(start) < l.slice); b++ {
		t0 := time.Now()
		for i := 0; i < inner; i++ {
			if err := fn(); err != nil {
				l.err = fmt.Errorf("rung %s: %w", name, err)
				return cost{}
			}
		}
		perOp = append(perOp, float64(time.Since(t0).Nanoseconds())/(float64(inner)*ops))
		calls += inner
	}
	runtime.ReadMemStats(&m1)
	end := time.Now()
	total := float64(calls) * ops
	c := cost{ns: median(perOp), allocs: float64(m1.Mallocs-m0.Mallocs) / total, bytes: float64(m1.TotalAlloc-m0.TotalAlloc) / total}
	sp := l.tr.rung(name, parent, start, end)
	sp.Ops, sp.NsOp, sp.AllocOp, sp.BytesOp = int(total), c.ns, c.allocs, c.bytes
	return c
}

// column returns the generator's copy of a view's measure.
func (fx *fixture) column(vs viewSpec, name string) ([]float64, []bool) {
	for _, m := range fx.surv.measures {
		if m.name == name {
			return m.xs[vs.lo:vs.hi], m.valid[vs.lo:vs.hi]
		}
	}
	return nil, nil
}

// twin builds a four-column copy (ID and one triple) of the view's rows
// through the dataset API, ascending or descending by ID: the data the
// storage, shard, tape and relational rungs run on, since the view's own
// store is private.
func (fx *fixture) twin(vs viewSpec, names [3]string, descending bool) (*dataset.Dataset, error) {
	attrs := []dataset.Attribute{{Name: "ID", Kind: dataset.KindInt, Category: true}}
	var cols [3]struct {
		xs    []float64
		valid []bool
	}
	for j, name := range names {
		kind := dataset.KindInt
		if j == 0 {
			kind = dataset.KindFloat
		}
		attrs = append(attrs, dataset.Attribute{Name: name, Kind: kind, Summarizable: true})
		cols[j].xs, cols[j].valid = fx.column(vs, name)
	}
	sch, err := dataset.NewSchema(attrs...)
	if err != nil {
		return nil, err
	}
	ds := dataset.New(sch)
	n := vs.hi - vs.lo
	row := make(dataset.Row, 4)
	for i := 0; i < n; i++ {
		r := i
		if descending {
			r = n - 1 - i
		}
		row[0] = dataset.Int(int64(vs.lo + r))
		for j := range cols {
			switch {
			case !cols[j].valid[r]:
				row[1+j] = dataset.Null
			case j == 0:
				row[1+j] = dataset.Float(cols[j].xs[r])
			default:
				row[1+j] = dataset.Int(int64(cols[j].xs[r]))
			}
		}
		if err := ds.Append(row); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// runColumn run-length encodes a generator column.
func runColumn(xs []float64, valid []bool) exec.RunColumn {
	rc := exec.RunColumn{Rows: len(xs)}
	for i, x := range xs {
		if n := len(rc.Vals); n > 0 && rc.Nulls[n-1] == !valid[i] && (!valid[i] || rc.Vals[n-1] == x) {
			rc.Counts[n-1]++
			continue
		}
		rc.Vals = append(rc.Vals, x)
		rc.Nulls = append(rc.Nulls, !valid[i])
		rc.Counts = append(rc.Counts, 1)
	}
	return rc
}

// sink keeps results alive so the compiler cannot drop a rung's call.
var sink any

// runLadder measures every rung on fx and returns the per-layer metrics
// the rungs define.
func runLadder(fx *fixture, w *workload, tr *tracer, slice time.Duration) (map[string]float64, error) {
	l := &ladder{tr: tr, slice: slice, out: map[string]float64{}}
	runtime.GC() // fixtures the passes discarded are not collected on a rung's clock
	vs := fx.views[0]
	names := [3]string{vs.measures[0], vs.measures[1], vs.measures[2]}
	fName, cName, rName := names[0], names[1], names[2]
	rows := float64(vs.hi - vs.lo)
	v, err := fx.view(vs.name)
	if err != nil {
		return nil, err
	}
	xs, valid := fx.column(vs, fName)
	cs, cvalid := fx.column(vs, cName)
	rc := runColumn(fx.column(vs, rName))
	runs := float64(len(rc.Vals))
	sess := fx.sessions[0]
	// median always takes the summary path, sharded backing or not, so
	// the same statement is a cache hit on every workload's fixture.
	text := pair{view: vs.name, fn: "median", attr: fName}.statement()

	// Statement path: stmt → parse, gate, bookkeeping, view.compute.
	stmtC := l.rung("stmt", "", 100, 1, 0, func() error { _, _, err := sess.run(text); return err })
	parse := l.rung("query.parse", "stmt", 1000, 1, 0, func() error { c, err := query.Parse(text); sink = c; return err })
	l.out["query.parse_ns"], l.out["query.parse_allocs"] = parse.ns, parse.allocs
	gate, budget := fx.d.Gate(), obs.NewBudget(0, 0)
	l.out["core.gate_acquire_ns"] = l.rung("core.gate", "stmt", 1000, 1, 0, func() error {
		release, err := gate.Acquire(budget)
		if err == nil {
			release()
		}
		return err
	}).ns
	snap := l.rung("core.metrics", "stmt", 20, 1, 0, func() error { sink = fx.d.Metrics(); return nil })
	l.out["core.metrics_snapshot_ns"], l.out["core.metrics_snapshot_allocs"] = snap.ns, snap.allocs
	otr := obs.NewTracer()
	l.out["obs.span_ns"] = l.rung("obs.span", "stmt", 1000, 1, 0, func() error { otr.Begin("query").End(); return nil }).ns
	root := otr.Begin("query")
	vc := otr.Begin("view.compute", obs.A("fn", "median"), obs.A("attr", fName))
	ss := otr.Begin("summary.scalar", obs.A("fn", "median"), obs.A("attr", fName))
	ss.SetAttr("outcome", "hit")
	ss.End()
	vc.End()
	root.End()
	l.out["obs.fold_ns"] = l.rung("obs.fold", "stmt", 1000, 1, 0, func() error { sink = obs.FoldSpan(root); return nil }).ns
	ring, prof := obs.NewProfileRing(64), obs.FoldSpan(root)
	l.out["obs.ring_add_ns"] = l.rung("obs.ring_add", "stmt", 1000, 1, 0, func() error { ring.Add("compute", prof); return nil }).ns
	elog, err := obs.NewEventLog(obs.EventLogConfig{W: io.Discard})
	if err != nil {
		return nil, err
	}
	rec := &obs.QueryRecord{Query: text, Session: "s0", SessionSeq: 1, TotalTicks: 5, CacheHits: 1, Strategy: "cached"}
	l.out["obs.eventlog_ns"] = l.rung("obs.eventlog", "stmt", 1000, 1, 0, func() error {
		elog.Log(obs.Event{Tick: 5, Kind: "query", Query: rec})
		return nil
	}).ns
	compute := l.rung("view.compute", "stmt", 500, 1, 0, func() error { x, err := v.Compute("median", fName); sink = x; return err })
	l.out["view.compute_hit_ns"] = compute.ns
	l.out["query.overhead_ns"], l.out["query.overhead_allocs"] = stmtC.ns-compute.ns, stmtC.allocs-compute.allocs

	// Summary Database on a benchmark-made in-memory source: fold and
	// maintenance cost apart from any I/O.
	mdb := rules.NewManagementDB()
	src := func() ([]float64, []bool) { return xs, valid }
	sdb := summary.NewDB(mdb)
	for _, fn := range fns {
		if _, err := sdb.Scalar(fn, "A", src); err != nil {
			return nil, err
		}
	}
	l.out["summary.hit_ns"] = l.rung("summary.scalar", "view.compute", 1000, 1, 0, func() error {
		x, err := sdb.Scalar("median", "A", src)
		sink = x
		return err
	}).ns
	l.rung("summary.scalar.miss", "view.compute", 1, 1, 0, func() error {
		x, err := summary.NewDB(mdb).Scalar("median", "A", src)
		sink = x
		return err
	})
	idx := index.New()
	for _, p := range allPairs("", vs.measures) {
		idx.Put(index.Key(p.attr, p.fn), int64(idx.Len()))
	}
	key := index.Key(fName, "median")
	l.out["index.get_ns"] = l.rung("index.get", "summary.scalar", 1000, 1, 0, func() error { x, _ := idx.Get(key); sink = x; return nil }).ns
	l.out["exec.fold_moments_ns_per_row"] = l.rung("exec.fold", "summary.scalar.miss", 1, rows, 0, func() error { sink = exec.FoldMoments(xs, valid); return nil }).ns
	pool := exec.New(runtime.GOMAXPROCS(0))
	l.out["exec.pool_moments_ns_per_row"] = l.rung("exec.pool", "summary.scalar.miss", 1, rows, 0, func() error {
		sink = exec.ColumnMoments(pool, xs, valid, exec.DefaultChunk)
		return nil
	}).ns
	l.out["exec.fold_freq_ns_per_row"] = l.rung("exec.fold_freq", "summary.scalar.miss", 1, rows, 0, func() error { sink = exec.FoldFreq(xs, valid); return nil }).ns
	l.out["exec.fold_runs_ns_per_run"] = l.rung("exec.fold_runs", "summary.scalar.miss", 10, runs, 0, func() error {
		m, err := exec.FoldMomentsRuns(rc)
		sink = m
		return err
	}).ns
	l.out["medwin.build_ns_per_row"] = l.rung("medwin.build", "summary.scalar.miss", 1, rows, 0, func() error {
		win, err := medwin.NewQuantile(xs, valid, 0.5, sdb.WindowCapacity)
		sink = win
		return err
	}).ns
	l.out["incr.build_ns_per_row"] = l.rung("incr.build", "summary.scalar.miss", 1, rows, 0, func() error { sink = incr.NewVariance(xs, valid); return nil }).ns
	l.out["stats.quantile_ns_per_row"] = l.rung("stats.quantile", "summary.scalar.miss", 1, rows, 0, func() error {
		x, err := stats.Quantile(xs, valid, 0.5)
		sink = x
		return err
	}).ns
	l.out["stats.quantile_pool_ns_per_row"] = l.rung("stats.quantile_pool", "summary.scalar.miss", 1, rows, 0, func() error {
		x, err := stats.QuantileChunks(pool, xs, valid, exec.DefaultChunk, 0.5)
		sink = x
		return err
	}).ns
	l.out["stats.histogram_ns_per_row"] = l.rung("stats.histogram", "stmt", 1, rows, 0, func() error {
		h, err := stats.NewHistogram(xs, valid, histBins)
		sink = h
		return err
	}).ns
	l.out["stats.correlate_ns_per_row"] = l.rung("stats.correlate", "stmt", 1, rows, 0, func() error {
		x, err := stats.Correlation(xs, cs, valid, cvalid)
		sink = x
		return err
	}).ns

	// Read path: view.column → colstore.read → storage.pool.fetch →
	// storage.device.read, the colstore and storage rungs on a twin of
	// the view's store (same data, same frame count).
	l.out["view.column_ns_per_row"] = l.rung("view.column", "summary.scalar.miss", 1, rows, 0, func() error {
		x, _, err := v.Column(fName)
		sink = x
		return err
	}).ns
	l.out["dataset.numeric_ns_per_row"] = l.rung("dataset.numeric", "view.column", 1, rows, 0, func() error {
		x, _, err := v.Dataset().NumericByName(cName) // an int column: a float one is handed out without a copy
		sink = x
		return err
	}).ns
	twin, err := fx.twin(vs, names, false)
	if err != nil {
		return nil, err
	}
	frames := fitPoolFrames(twin.Rows(), twin.Schema().Len())
	if w.backing == backTransposedSmall {
		frames = smallPoolFrames
	}
	var file *colstore.File
	load := func() error {
		p := storage.NewBufferPool(storage.NewMemDevice(storage.DefaultDiskCost()), frames)
		f, err := colstore.Load(p, twin, colstore.Options{Encode: colstore.SuggestEncodings(twin)})
		if err != nil {
			return err
		}
		file = f
		return p.FlushAll()
	}
	cells := rows * float64(twin.Schema().Len())
	l.out["colstore.load_ns_per_cell"] = l.rung("colstore.load", "", 1, cells, 0, load).ns
	l.out["colstore.bytes_per_user_byte"] = float64(file.TotalPages()) * storage.PageSize / (cells * 8)
	l.out["colstore.plain_read_ns_per_row"] = l.rung("colstore.read", "view.column", 1, rows, 0, func() error {
		x, _, err := file.NumericColumn(fName)
		sink = x
		return err
	}).ns
	l.out["colstore.rle_read_ns_per_row"] = l.rung("colstore.read_rle", "view.column", 1, rows, 0, func() error {
		x, _, err := file.NumericColumn(rName)
		sink = x
		return err
	}).ns
	l.out["colstore.run_read_ns_per_run"] = l.rung("colstore.read_runs", "view.column", 10, runs, 0, func() error {
		x, _, _, err := file.NumericRunColumn(rName)
		sink = x
		return err
	}).ns
	l.storageRungs()

	// Write path: view.update → summary.onupdate → incr.apply,
	// medwin.slide; view.update → colstore.update.
	updates := 0
	pred := relalg.Cmp{Attr: cName, Op: relalg.Eq, Val: dataset.Int(7)}
	l.out["view.update_ns_per_row"] = l.rung("view.update", "", 1, rows, 8, func() error {
		updates++
		_, err := v.UpdateWhere(fName, pred, dataset.Float(float64(updates)+0.5))
		return err
	}).ns
	undone := 0
	l.out["view.undo_ns"] = l.rung("view.undo", "", 1, 1, updates-1, func() error { undone++; return v.Undo() }).ns
	for ; undone < updates && l.err == nil; undone++ {
		l.err = v.Undo()
	}
	var fwd, back []incr.Delta
	for i := 0; i < len(xs) && len(fwd) < 1000; i++ {
		if valid[i] {
			fwd = append(fwd, incr.UpdateOf(xs[i], xs[i]+0.5))
			back = append(back, incr.UpdateOf(xs[i]+0.5, xs[i]))
		}
	}
	flip := false
	l.out["summary.onupdate_ns_per_delta"] = l.rung("summary.onupdate", "view.update", 1, float64(len(fwd)), 0, func() error {
		if flip = !flip; flip {
			sdb.OnUpdate("A", fwd)
		} else {
			sdb.OnUpdate("A", back)
		}
		return nil
	}).ns
	vm := incr.NewVariance(xs, valid)
	l.out["incr.apply_ns"] = l.rung("incr.apply", "summary.onupdate", 500, 2, 0, func() error {
		vm.Apply(fwd[0])
		vm.Apply(back[0])
		return nil
	}).ns
	win, err := medwin.NewQuantile(xs, valid, 0.5, sdb.WindowCapacity)
	if err != nil {
		return nil, err
	}
	probe := fwd[0].Old
	l.out["medwin.slide_ns"] = l.rung("medwin.slide", "summary.onupdate", 500, 1, 0, func() error {
		win.Insert(probe)
		return win.Delete(probe)
	}).ns
	at := 0
	l.out["colstore.update_ns"] = l.rung("colstore.update", "view.update", 100, 1, 0, func() error {
		at = (at + 997) % int(rows)
		return file.UpdateValue(fName, at, dataset.Float(1.5))
	}).ns

	// Set-up rungs: what a materialize statement and an attach run through.
	arch := tape.NewArchive(tape.DefaultCost())
	if err := arch.Write("twin", twin); err != nil {
		return nil, err
	}
	l.out["tape.read_ns_per_row"] = l.rung("tape.read", "", 1, rows, 0, func() error {
		return arch.Read("twin", func(dataset.Row) bool { return true })
	}).ns
	keep := relalg.Cmp{Attr: "ID", Op: relalg.Ge, Val: dataset.Int(int64(vs.lo) + int64(rows)/2)}
	l.out["relalg.select_ns_per_row"] = l.rung("relalg.select", "", 1, rows, 0, func() error {
		ds, err := relalg.Select(twin, keep)
		sink = ds
		return err
	}).ns
	reversed, err := fx.twin(vs, names, true)
	if err != nil {
		return nil, err
	}
	l.out["relalg.sort_ns_per_row"] = l.rung("relalg.sort", "", 1, rows, 0, func() error {
		ds, err := relalg.Sort(reversed, relalg.SortKey{Attr: "ID"})
		sink = ds
		return err
	}).ns
	var st *shard.Store
	l.out["shard.build_s"] = l.rung("shard.build", "", 1, 1, 0, func() error {
		s, err := shard.New("twin", twin, shard.Config{Shards: shardCount})
		st = s
		return err
	}).ns / 1e9
	if l.err != nil {
		return nil, l.err
	}
	l.out["shard.moments_ns"] = l.rung("shard.moments", "stmt", 1, 1, 0, func() error {
		m, _, err := st.Moments(fName)
		sink = m
		return err
	}).ns
	l.out["shard.freq_ns"] = l.rung("shard.freq", "stmt", 1, 1, 0, func() error {
		f, _, err := st.Freq(fName)
		sink = f
		return err
	}).ns
	l.out["view.build_s"] = fx.build.Seconds()
	return l.out, l.err
}

// storageRungs measures the buffer pool and device on pages of its own:
// a 4-frame pool cycling through 64 pages misses every time (device read
// plus checksum verification), a 128-frame pool over the same pages hits.
func (l *ladder) storageRungs() {
	if l.err != nil {
		return
	}
	const pages = 64
	dev := storage.NewMemDevice(storage.DefaultDiskCost())
	writer := storage.NewBufferPool(dev, pages)
	ids := make([]storage.PageID, pages)
	for i := range ids {
		id, _, err := writer.NewPage()
		if err == nil {
			err = writer.Unpin(id, true)
		}
		if err != nil {
			l.err = err
			return
		}
		ids[i] = id
	}
	if l.err = writer.FlushAll(); l.err != nil {
		return
	}
	next := 0
	fetch := func(p *storage.BufferPool) func() error {
		return func() error {
			id := ids[next%pages]
			next++
			pg, err := p.Fetch(id)
			if err != nil {
				return err
			}
			sink = pg
			return p.Unpin(id, false)
		}
	}
	l.out["storage.pool_miss_ns"] = l.rung("storage.pool.fetch", "colstore.read", pages, 1, 0, fetch(storage.NewBufferPool(dev, 4))).ns
	l.out["storage.pool_hit_ns"] = l.rung("storage.pool.hit", "colstore.read", pages, 1, 0, fetch(storage.NewBufferPool(dev, 2*pages))).ns
	buf := make([]byte, storage.PageSize)
	l.out["storage.device_read_ns"] = l.rung("storage.device.read", "storage.pool.fetch", pages, 1, 0, func() error {
		next++
		return dev.ReadPage(ids[next%pages], buf)
	}).ns
	l.out["storage.checksum_ns"] = l.rung("storage.checksum", "storage.pool.fetch", pages, 1, 0, func() error {
		return storage.VerifyPageBuf(buf, ids[next%pages])
	}).ns
	l.out["storage.device_write_ns"] = l.rung("storage.device.write", "storage.pool.fetch", pages, 1, 0, func() error {
		return dev.WritePage(ids[next%pages], buf)
	}).ns
}
