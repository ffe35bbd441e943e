package shard

import (
	"fmt"
	"strconv"

	"statdb/internal/exec"
	"statdb/internal/storage"
	"statdb/internal/summary"
)

// Checkpointed partials: per (shard, column), the shard's merged Moments
// and frequency table, stored in the manifest device's summary.DB and
// committed with shadow generations. When a shard is down, the gather
// substitutes these — a stale-but-bounded answer, with the generation it
// came from recorded in the Report.

// maxFreqCheckpoint bounds the frequency tables worth checkpointing: a
// checkpointed record must fit one heap page (~4080 bytes; 16 bytes per
// distinct value). A column with more distinct values than this gets no
// freq fallback — its rows go missing from a degraded frequency answer
// instead (still a degraded answer, never an error).
const maxFreqCheckpoint = 192

// encodeMoments flattens a Moments partial into the 7-float vector
// layout [N, Missing, Sum, Mean, M2, Min, Max].
func encodeMoments(m exec.Moments) []float64 {
	return []float64{float64(m.N), float64(m.Missing), m.Sum, m.Mean, m.M2, m.Min, m.Max}
}

// decodeMoments parses encodeMoments's layout.
func decodeMoments(v []float64) (exec.Moments, error) {
	if len(v) != 7 {
		return exec.Moments{}, corruptf("moments vector of %d values, want 7", len(v))
	}
	return exec.Moments{
		N: int64(v[0]), Missing: int64(v[1]),
		Sum: v[2], Mean: v[3], M2: v[4], Min: v[5], Max: v[6],
	}, nil
}

// encodeFreq flattens a frequency table as [v1, c1, v2, c2, ...] in
// ascending value order (deterministic bytes for a deterministic table).
func encodeFreq(f exec.Freq) []float64 {
	t := f.Table()
	out := make([]float64, 0, 2*len(t.Values))
	for i, v := range t.Values {
		out = append(out, v, float64(t.Counts[i]))
	}
	return out
}

// decodeFreq parses encodeFreq's layout.
func decodeFreq(v []float64) (exec.Freq, error) {
	if len(v)%2 != 0 {
		return nil, corruptf("freq vector of odd length %d", len(v))
	}
	f := make(exec.Freq, len(v)/2)
	for i := 0; i < len(v); i += 2 {
		f[v[i]] += int64(v[i+1])
	}
	return f, nil
}

// shardAttr keys a (column, shard) partial in the partials DB.
func shardAttr(col string, shard int) []string {
	return []string{col, "shard" + strconv.Itoa(shard)}
}

// shardPartials folds every chunk the shard owns for column col,
// merging in ascending global chunk order, and tabulates the frequency
// table. Runs on the shard's own pool and device stack.
func (sh *shardState) shardPartials(col string) (exec.Moments, exec.Freq, error) {
	xs, valid, err := sh.file.NumericColumn(col)
	if err != nil {
		return exec.Moments{}, nil, err
	}
	var m exec.Moments
	for i, ref := range sh.chunks {
		part := exec.FoldMoments(xs[ref.localLo:ref.localLo+ref.localLen], valid[ref.localLo:ref.localLo+ref.localLen])
		if i == 0 {
			m = part
		} else {
			m = exec.MergeMoments(m, part)
		}
	}
	return m, exec.FoldFreq(xs, valid), nil
}

// Checkpoint recomputes every healthy shard's per-column partials,
// stores them (and the refreshed manifest) in the partials DB, and
// commits the whole set under the next shadow generation. Down shards
// keep their previous entries and generations — that is the point: the
// last good checkpoint is what a degraded read falls back to.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	live := make([]*shardState, 0, len(s.shards))
	for _, sh := range s.shards {
		if sh.health != Down {
			live = append(live, sh)
		}
	}
	s.mu.Unlock()

	for _, sh := range live {
		for _, col := range s.numericCols() {
			m, f, err := sh.shardPartials(col)
			if err != nil {
				return fmt.Errorf("shard: checkpoint %s %q: %w", sh.label, col, err)
			}
			s.partials.StoreCustom(fnMoments, shardAttr(col, sh.index), summary.VectorOf(encodeMoments(m)))
			if len(f) <= maxFreqCheckpoint {
				s.partials.StoreCustom(fnFreq, shardAttr(col, sh.index), summary.VectorOf(encodeFreq(f)))
			}
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	gen := s.manStore.Generation() + 1
	man := &Manifest{
		View: s.name, Rows: s.rows, Chunk: s.chunk, Policy: s.policy,
		Shards: make([]ManifestShard, len(s.shards)),
	}
	for i, sh := range s.shards {
		g := sh.ckptGen
		for _, l := range live {
			if l == sh {
				g = gen
			}
		}
		chunks := make([]int, len(sh.chunks))
		for j, ref := range sh.chunks {
			chunks[j] = ref.global
		}
		man.Shards[i] = ManifestShard{Rows: sh.rows, Gen: g, Chunks: chunks}
	}
	s.partials.StoreCustom(fnManifest, []string{s.name}, summary.TextOf(string(EncodeManifest(man))))
	if err := s.manStore.Checkpoint(s.partials); err != nil {
		return fmt.Errorf("shard: checkpoint commit: %w", err)
	}
	for _, sh := range live {
		sh.ckptGen = s.manStore.Generation()
	}
	return nil
}

// numericCols lists the column names usable as numeric aggregates.
func (s *Store) numericCols() []string {
	out := make([]string, 0, len(s.cols))
	for _, col := range s.cols {
		if _, _, err := s.shards[0].file.NumericColumn(col); err == nil {
			out = append(out, col)
		}
	}
	return out
}

// stalePartial fetches shard i's checkpointed partial for (fn, col).
// ok=false when none was ever checkpointed (or it was too large).
func (s *Store) stalePartial(fn, col string, i int) ([]float64, uint64, bool) {
	r, ok := s.partials.Lookup(fn, shardAttr(col, i)...)
	if !ok || r.Kind != summary.VectorResult {
		return nil, 0, false
	}
	s.mu.Lock()
	gen := s.shards[i].ckptGen
	s.mu.Unlock()
	return r.Vector, gen, true
}

// RestorePartials re-opens the manifest device's checkpoint store and
// loads the last committed generation into a fresh partials DB — the
// crash-recovery path. It returns the tolerant-load report (PR 2's
// LoadReport semantics: corrupt pages are skipped, damaged records
// dropped or marked stale, never a panic).
//
//lint:allow test-only safety: the crash-recovery path that reopens checkpointed partials
func RestorePartials(dev storage.Device, poolPages int) (*summary.DB, summary.LoadReport, uint64, error) {
	if poolPages <= 0 {
		poolPages = 64
	}
	pool := storage.NewBufferPool(dev, poolPages)
	st, err := summary.OpenStore(pool)
	if err != nil {
		return nil, summary.LoadReport{}, 0, err
	}
	db := summary.NewDB(nil)
	rep, err := st.Restore(db)
	if err != nil {
		return nil, rep, 0, err
	}
	return db, rep, st.Generation(), nil
}
