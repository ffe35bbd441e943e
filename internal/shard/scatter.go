package shard

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"statdb/internal/dataset"
	"statdb/internal/exec"
	"statdb/internal/obs"
	"statdb/internal/summary"
)

// Report is the provenance of one scatter-gather answer — the sharded
// analogue of summary.LoadReport. A degraded answer is still an answer;
// the report says exactly which shards stood behind it and what was
// substituted or lost.
type Report struct {
	Shards   int   // shards in the placement
	Answered []int // shards that answered live, ascending
	Stale    []int // shards answered from stale checkpointed partials
	Missing  []int // shards with no answer at all
	// RowsMissing counts rows absent from the answer (shards in Missing,
	// plus Stale shards of a materialization — partials cannot rebuild
	// rows).
	RowsMissing int
	// StaleGens records, per stale shard, the shadow generation of the
	// checkpoint its partial came from.
	StaleGens map[int]uint64
	Retries   int   // shard-level retries spent
	Ticks     int64 // critical path: the slowest shard's virtual ticks
}

// Degraded reports whether the answer is anything less than complete
// and live.
func (r Report) Degraded() bool { return len(r.Stale) > 0 || len(r.Missing) > 0 }

func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "answered %d/%d", len(r.Answered), r.Shards)
	if len(r.Stale) > 0 {
		gens := make([]string, 0, len(r.Stale))
		for _, i := range r.Stale {
			gens = append(gens, fmt.Sprintf("shard%d@gen%d", i, r.StaleGens[i]))
		}
		fmt.Fprintf(&b, " stale=[%s]", strings.Join(gens, " "))
	}
	if len(r.Missing) > 0 {
		fmt.Fprintf(&b, " missing=%v rows_missing=%d", r.Missing, r.RowsMissing)
	}
	fmt.Fprintf(&b, " ticks=%d", r.Ticks)
	return b.String()
}

// outcome is one shard's result of one scatter operation.
type outcome struct {
	skipped bool // down before the op: fast-failed without I/O
	retried bool
	err     error
	ticks   int64
}

// runShardOp executes op against sh with the bounded failure protocol:
// the pool's own transient retry underneath, one shard-level retry on
// top. The whole protocol (both attempts) runs inside one span on tr —
// the shard's adopted child tracer — so the shard's device ticks are
// charged where the work happened and metered against the owning
// query's budget live; op begins its own spans on tr, under this one.
// The span carries the shard's ticks/pages/retries attrs; the returned
// span is the handle the coordinator decorates post-join (health, err).
func runShardOp(tr *obs.Tracer, sh *shardState, op func() error) (outcome, *obs.Span) {
	var o outcome
	sp := tr.Begin(sh.label)
	start := sh.dev.Stats()
	err := op()
	if err != nil {
		o.retried = true
		err = op()
	}
	o.err = err
	o.ticks = sh.dev.Stats().Ticks - start.Ticks
	sp.Charge(o.ticks)
	sp.SetAttr("ticks", fmt.Sprintf("%d", o.ticks))
	sp.SetAttr("pages", fmt.Sprintf("%d", sh.dev.Stats().Reads-start.Reads))
	if o.retried {
		sp.SetAttr("retries", "1")
	}
	sp.End()
	return o, sp
}

// scatter fans op out across all shards (one goroutine per shard — this
// package is on the statdb-vet goroutine allowlist), skipping Down
// shards without I/O, then applies health transitions and metric/trace
// bookkeeping in shard order. Each worker runs under its own adopted
// child tracer, which op receives; the gather joins them in ascending
// shard order, so the stitched tree under "shard.scatter" — one child
// per shard, carrying its ticks/pages/retries/health — is identical
// regardless of worker scheduling. The returned outcomes are indexed by
// shard.
func (s *Store) scatter(name, col string, op func(sh *shardState, tr *obs.Tracer) error) ([]outcome, *Report) {
	s.met.scatters.Inc()
	outs := make([]outcome, len(s.shards))
	span := s.tracer.Begin("shard.scatter",
		obs.Attr{Key: "view", Value: s.name}, obs.Attr{Key: "op", Value: name + " " + col})
	adopted := make([]*obs.Tracer, len(s.shards))
	spans := make([]*obs.Span, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		if s.Health(i) == Down {
			outs[i] = outcome{skipped: true, err: fmt.Errorf("shard: %s: %w", sh.label, ErrShardDown)}
			continue
		}
		adopted[i] = s.tracer.Adopt(span)
		wg.Add(1)
		go func(i int, sh *shardState) {
			defer wg.Done()
			outs[i], spans[i] = runShardOp(adopted[i], sh, func() error { return op(sh, adopted[i]) })
		}(i, sh)
	}
	wg.Wait()

	rep := &Report{Shards: len(s.shards), StaleGens: map[int]uint64{}}
	for i, sh := range s.shards {
		o := outs[i]
		if !o.skipped {
			s.recordOutcome(sh, o.err == nil)
		}
		if o.retried {
			rep.Retries++
			s.met.retries.Inc()
		}
		if o.err == nil {
			rep.Answered = append(rep.Answered, i)
		} else if !o.skipped {
			s.met.failures.Inc()
		}
		if o.ticks > rep.Ticks {
			rep.Ticks = o.ticks
		}
		// Stitch the shard's spans under the scatter span (ascending
		// shard order — the deterministic join), then decorate with the
		// post-op state only the coordinator knows.
		child := spans[i]
		adopted[i].Join()
		if o.skipped {
			// A Down shard never spawned a worker; record the fast-fail
			// as a zero-tick child directly on the open scatter span.
			// (Attrs may still be set after End — only the stack slot
			// closes.)
			child = s.tracer.Begin(sh.label)
			child.SetAttr("ticks", "0")
			child.End()
		}
		child.SetAttr("health", s.Health(i).String())
		if o.err != nil {
			child.SetAttr("err", o.err.Error())
		}
	}
	span.End()
	return outs, rep
}

// finish counts a degraded answer and decides the error contract: a
// scatter that produced nothing at all (no live shard, no stale partial)
// over a non-empty view is ErrShardDown; anything partial is a degraded
// answer, not an error. Call once the report is final.
func (s *Store) finish(rep *Report) error {
	if rep.Degraded() {
		s.met.degraded.Inc()
		s.met.stale.Add(int64(len(rep.Stale)))
		s.met.rowsMissing.Add(int64(rep.RowsMissing))
	}
	if s.rows > 0 && len(rep.Answered) == 0 && len(rep.Stale) == 0 {
		return fmt.Errorf("shard: view %q: no shard answered: %w", s.name, ErrShardDown)
	}
	return nil
}

// Gather folds col into the state families asked for — a summary state
// row's fold flags, as exec.ColumnFold takes them — by scatter-gather.
// Healthy path: every shard folds its global chunks in parallel, and the
// gather merges the per-chunk states in ascending global chunk order —
// the merge of exec.ColumnFold, so the state is bit-identical to the
// unsharded fold of the column. Degraded path: each failed shard's last
// checkpointed partial (when one holds every family asked) is merged
// afterward in ascending shard order, recorded as stale provenance; a
// shard with none contributes nothing and its rows are reported missing.
func (s *Store) Gather(col string, moments, freq bool) (summary.State, Report, error) {
	op := "moments"
	switch {
	case moments && freq:
		op = "moments+freq"
	case freq:
		op = "freq"
	}
	parts := make([]summary.State, len(exec.Chunks(s.rows, exec.DefaultChunk)))
	outs, rep := s.scatter(op, col, func(sh *shardState, tr *obs.Tracer) error {
		return sh.fold(tr, col, moments, freq, parts)
	})
	// A failed shard's slots are still zero (fold writes only once its
	// read succeeded), so its chunks merge as nothing and its stale
	// partial cannot double-count them.
	for i, sh := range s.shards {
		if outs[i].err == nil || sh.rows == 0 {
			continue
		}
		if st, gen, ok := s.stalePartial(col, i, moments, freq); ok {
			parts = append(parts, st)
			rep.Stale = append(rep.Stale, i)
			rep.StaleGens[i] = gen
			continue
		}
		rep.Missing = append(rep.Missing, i)
		rep.RowsMissing += sh.rows
	}
	err := s.finish(rep)
	return merge(parts, freq), *rep, err
}

// Moments is the moments family of Gather.
func (s *Store) Moments(col string) (exec.Moments, Report, error) {
	st, rep, err := s.Gather(col, true, false)
	return st.Moments, rep, err
}

// Freq is the frequency-table family of Gather.
func (s *Store) Freq(col string) (exec.FreqTable, Report, error) {
	st, rep, err := s.Gather(col, false, true)
	return st.Freq, rep, err
}

// merge combines states in the order given: the moments left to right,
// as exec.ColumnFold merges its chunks, and the tables (when freq) in
// one exec.MergeFreq. A zero state merges as nothing.
func merge(parts []summary.State, freq bool) summary.State {
	var st summary.State
	var tables []exec.FreqTable
	if freq {
		tables = make([]exec.FreqTable, len(parts))
	}
	for i, p := range parts {
		st.Moments = exec.MergeMoments(st.Moments, p.Moments)
		if freq {
			tables[i] = p.Freq
		}
	}
	if freq {
		st.Freq = exec.MergeFreq(tables)
	}
	return st
}

// fold reads the shard's image of col and folds each global chunk it
// owns into parts[global] — the families moments and freq ask for —
// under one "range" span per chunk on tr. It writes only its own chunks'
// slots, so every shard folds into one parts slice at once, and none
// when the read fails.
func (sh *shardState) fold(tr *obs.Tracer, col string, moments, freq bool, parts []summary.State) error {
	xs, valid, err := sh.file.NumericColumn(col) //lint:allow charge-tracking runShardOp charges the measured ticks around the whole op
	if err != nil {
		return err
	}
	for _, ref := range sh.chunks {
		lo, hi := ref.localLo, ref.localLo+ref.localLen
		sp := tr.Begin("range", obs.AI("lo", int64(lo)), obs.AI("hi", int64(hi)),
			obs.AI("rows", int64(ref.localLen)), obs.AI("chunk", int64(ref.global)))
		var st summary.State
		if moments {
			st.Moments = exec.FoldMoments(xs[lo:hi], valid[lo:hi])
		}
		if freq {
			st.Freq = exec.FoldFreq(xs[lo:hi], valid[lo:hi])
		}
		parts[ref.global] = st
		sp.End()
	}
	return nil
}

// Materialize rebuilds the view's rows by scatter-gather, in global row
// order. Rows on failed shards are absent from the result (stale
// aggregate partials cannot restore rows) and counted in the report;
// the healthy path returns every row, bit-identical to the unsharded
// dataset.
func (s *Store) Materialize() (*dataset.Dataset, Report, error) {
	subs := make([]*dataset.Dataset, len(s.shards))
	outs, rep := s.scatter("materialize", "*", func(sh *shardState, _ *obs.Tracer) error {
		sub, err := sh.file.Materialize()
		if err != nil {
			return err
		}
		subs[sh.index] = sub
		return nil
	})

	for i, sh := range s.shards {
		if outs[i].err == nil {
			continue
		}
		if sh.rows > 0 {
			rep.Missing = append(rep.Missing, i)
			rep.RowsMissing += sh.rows
		}
	}

	// Reassemble global order: chunk -> (owner shard, local offset).
	type owner struct {
		shard   int
		localLo int
		length  int
	}
	numChunks := len(exec.Chunks(s.rows, exec.DefaultChunk))
	owners := make([]owner, numChunks)
	for i, sh := range s.shards {
		for _, ref := range sh.chunks {
			owners[ref.global] = owner{shard: i, localLo: ref.localLo, length: ref.localLen}
		}
	}
	out := dataset.New(s.schema)
	out.SetName(s.name)
	for c := 0; c < numChunks; c++ {
		ow := owners[c]
		sub := subs[ow.shard]
		if sub == nil {
			continue // rows lost with their shard
		}
		if err := appendRows(out, sub, ow.localLo, ow.localLo+ow.length); err != nil {
			return nil, *rep, fmt.Errorf("shard: gather chunk %d: %w", c, err)
		}
	}
	sort.Ints(rep.Missing)
	err := s.finish(rep)
	return out, *rep, err
}

// appendRows appends rows [lo, hi) of src to out, a column at a time.
func appendRows(out, src *dataset.Dataset, lo, hi int) error {
	for c := 0; c < src.Schema().Len(); c++ {
		valid := src.Valid(c)[lo:hi]
		var err error
		switch src.Schema().At(c).Kind {
		case dataset.KindInt:
			xs, _ := src.Ints(c)
			err = dataset.AppendColumn(out, c, xs[lo:hi], valid)
		case dataset.KindFloat:
			xs, _ := src.Floats(c)
			err = dataset.AppendColumn(out, c, xs[lo:hi], valid)
		default:
			xs, _ := src.Strings(c)
			err = dataset.AppendColumn(out, c, xs[lo:hi], valid)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
