package shard

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"statdb/internal/dataset"
	"statdb/internal/exec"
	"statdb/internal/obs"
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
	Timeouts  int   // shards discarded for exceeding the op tick budget
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
	if r.Timeouts > 0 {
		fmt.Fprintf(&b, " timeouts=%d", r.Timeouts)
	}
	fmt.Fprintf(&b, " ticks=%d", r.Ticks)
	return b.String()
}

// outcome is one shard's result of one scatter operation.
type outcome struct {
	skipped  bool // down before the op: fast-failed without I/O
	retried  bool
	timedOut bool
	err      error
	ticks    int64
}

// runShardOp executes op against sh with the bounded failure protocol:
// the pool's own transient retry underneath, one shard-level retry on
// top, and the virtual-tick budget as a deterministic timeout — an op
// that ran past the budget is discarded even if it succeeded, because
// the gather will not wait for it. The whole protocol (both attempts)
// runs inside one span on tr — the shard's adopted child tracer — so
// the shard's device ticks are charged where the work happened and
// metered against the owning query's budget live; the span carries the
// shard's ticks/pages/retries attrs. The returned span is the handle
// the coordinator decorates post-join (health, err).
func (s *Store) runShardOp(tr *obs.Tracer, sh *shardState, op func(h exec.SpanHook) error) (outcome, *obs.Span) {
	var o outcome
	sp := tr.Begin(sh.label)
	// Ops that fan ranges across the shard's own pool stitch per-range
	// spans under the shard span through this hook.
	h := exec.SpanHook{Tracer: tr, Parent: sp, Name: "range"}
	start := sh.dev.Stats()
	err := op(h)
	o.ticks = sh.dev.Stats().Ticks - start.Ticks
	over := s.budget > 0 && o.ticks > s.budget
	if err != nil && !over {
		o.retried = true
		err = op(h)
		o.ticks = sh.dev.Stats().Ticks - start.Ticks
		over = s.budget > 0 && o.ticks > s.budget
	}
	if over {
		o.timedOut = true
		if err == nil {
			err = fmt.Errorf("shard: %s exceeded op budget of %d ticks (spent %d)", sh.label, s.budget, o.ticks)
		}
	}
	o.err = err
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
// child tracer; the gather joins them in ascending shard order, so the
// stitched tree under "shard.scatter" — one child per shard, carrying
// its ticks/pages/retries/health — is identical regardless of worker
// scheduling. The returned outcomes are indexed by shard.
func (s *Store) scatter(name, col string, op func(sh *shardState, h exec.SpanHook) error) ([]outcome, *Report) {
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
			outs[i], spans[i] = s.runShardOp(adopted[i], sh, func(h exec.SpanHook) error { return op(sh, h) })
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
		if o.timedOut {
			rep.Timeouts++
			s.met.timeouts.Inc()
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

// finishReport applies the degraded-answer bookkeeping shared by every
// gather: metrics, event log. Call once the report is final.
func (s *Store) finishReport(name, col string, rep *Report) {
	if !rep.Degraded() {
		return
	}
	s.met.degraded.Inc()
	s.met.stale.Add(int64(len(rep.Stale)))
	s.met.rowsMissing.Add(int64(rep.RowsMissing))
	s.events.Log(obs.Event{
		Sev:  obs.SevWarn,
		Kind: "shard",
		Msg:  fmt.Sprintf("view %s degraded %s(%s): %s", s.name, name, col, rep),
	})
}

// gatherErr decides the error contract: a scatter that produced nothing
// at all (no live shard, no stale partial) over a non-empty view is
// ErrShardDown; anything partial is a degraded answer, not an error.
func (s *Store) gatherErr(rep *Report) error {
	if s.rows > 0 && len(rep.Answered) == 0 && len(rep.Stale) == 0 {
		return fmt.Errorf("shard: view %q: no shard answered: %w", s.name, ErrShardDown)
	}
	return nil
}

// Moments computes the whole-column moment aggregate for col by
// scatter-gather. Healthy path: every shard folds its global chunks in
// parallel on its own pool, and the gather left-folds the per-chunk
// partials in ascending global chunk order — the exact merge sequence
// of exec.ColumnFold, so the answer is bit-identical to the unsharded
// fold of the column at any pool width. Degraded path:
// chunks of failed shards drop out of the fold; each failed shard's
// last checkpointed partial (when one exists) is merged afterward in
// ascending shard order, recorded as stale provenance; shards with no
// checkpoint contribute nothing and their rows are reported missing.
func (s *Store) Moments(col string) (exec.Moments, Report, error) {
	numChunks := len(exec.Chunks(s.rows, exec.DefaultChunk))
	parts := make([]exec.Moments, numChunks)
	have := make([]bool, numChunks)
	outs, rep := s.scatter("moments", col, func(sh *shardState, h exec.SpanHook) error {
		return sh.foldColumn(h, col, func(global int, xs []float64, valid []bool) {
			parts[global] = exec.FoldMoments(xs, valid)
			have[global] = true
		})
	})

	// A failed shard's folds are void even when its op partially ran (a
	// timeout fires after the work): only successful shards' chunks may
	// enter the fold, or a stale fallback would double-count them.
	for i, sh := range s.shards {
		if outs[i].err != nil {
			for _, ref := range sh.chunks {
				have[ref.global] = false
			}
		}
	}
	var out exec.Moments
	first := true
	for c := 0; c < numChunks; c++ {
		if !have[c] {
			continue
		}
		if first {
			out, first = parts[c], false
		} else {
			out = exec.MergeMoments(out, parts[c])
		}
	}
	for i, sh := range s.shards {
		if outs[i].err == nil || sh.rows == 0 {
			continue
		}
		if v, gen, ok := s.stalePartial(fnMoments, col, i); ok {
			if m, err := decodeMoments(v); err == nil {
				if first {
					out, first = m, false
				} else {
					out = exec.MergeMoments(out, m)
				}
				rep.Stale = append(rep.Stale, i)
				rep.StaleGens[i] = gen
				continue
			}
		}
		rep.Missing = append(rep.Missing, i)
		rep.RowsMissing += sh.rows
	}
	s.finishReport("moments", col, rep)
	return out, *rep, s.gatherErr(rep)
}

// Freq tabulates col's frequency table by scatter-gather: each shard
// tabulates its global chunks (exec.FoldFreq) and the gather merges the
// chunk tables, then each failed shard's checkpointed table, with
// exec.MergeFreq — the merge of exec.ColumnFold, so the healthy-path
// table is bit-identical to the unsharded fold's. Degraded semantics
// match Moments.
func (s *Store) Freq(col string) (exec.FreqTable, Report, error) {
	numChunks := len(exec.Chunks(s.rows, exec.DefaultChunk))
	parts := make([]exec.FreqTable, numChunks)
	outs, rep := s.scatter("freq", col, func(sh *shardState, h exec.SpanHook) error {
		return sh.foldColumn(h, col, func(global int, xs []float64, valid []bool) {
			parts[global] = exec.FoldFreq(xs, valid)
		})
	})

	for i, sh := range s.shards {
		if outs[i].err != nil {
			for _, ref := range sh.chunks {
				parts[ref.global] = exec.FreqTable{}
			}
		}
	}
	for i, sh := range s.shards {
		if outs[i].err == nil || sh.rows == 0 {
			continue
		}
		if v, gen, ok := s.stalePartial(fnFreq, col, i); ok {
			if t, err := decodeFreq(v); err == nil {
				parts = append(parts, t)
				rep.Stale = append(rep.Stale, i)
				rep.StaleGens[i] = gen
				continue
			}
		}
		rep.Missing = append(rep.Missing, i)
		rep.RowsMissing += sh.rows
	}
	s.finishReport("freq", col, rep)
	return exec.MergeFreq(parts), *rep, s.gatherErr(rep)
}

// foldColumn reads the shard's image of col and hands each owned global
// chunk's slice to fn, fanning chunks across the shard's own pool with
// per-range spans stitched under the shard's span via h. fn must only
// write state owned by the chunk (the scatter contract).
func (sh *shardState) foldColumn(h exec.SpanHook, col string, fn func(global int, xs []float64, valid []bool)) error {
	xs, valid, err := sh.file.NumericColumn(col) //lint:allow charge-tracking runShardOp charges the measured ticks around the whole op
	if err != nil {
		return err
	}
	ranges := make([]exec.Range, len(sh.chunks))
	for i, ref := range sh.chunks {
		ranges[i] = exec.Range{Lo: ref.localLo, Hi: ref.localLo + ref.localLen}
	}
	return sh.epool.RunRangesSpanned(ranges, h, func(c int, r exec.Range, sp *obs.Span) error {
		sp.SetAttr("chunk", fmt.Sprintf("%d", sh.chunks[c].global))
		fn(sh.chunks[c].global, xs[r.Lo:r.Hi], valid[r.Lo:r.Hi])
		return nil
	})
}

// Materialize rebuilds the view's rows by scatter-gather, in global row
// order. Rows on failed shards are absent from the result (stale
// aggregate partials cannot restore rows) and counted in the report;
// the healthy path returns every row, bit-identical to the unsharded
// dataset.
func (s *Store) Materialize() (*dataset.Dataset, Report, error) {
	subs := make([]*dataset.Dataset, len(s.shards))
	outs, rep := s.scatter("materialize", "*", func(sh *shardState, _ exec.SpanHook) error {
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
		subs[i] = nil // a timed-out shard's rows are void even if produced
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
	s.finishReport("materialize", "*", rep)
	return out, *rep, s.gatherErr(rep)
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
