package shard

import (
	"cmp"
	"fmt"
	"math"
	"strconv"

	"statdb/internal/dataset"
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
// its ascending value order (deterministic bytes for a deterministic
// table).
func encodeFreq(t exec.FreqTable) []float64 {
	out := make([]float64, 0, 2*len(t.Values))
	for i, v := range t.Values {
		out = append(out, v, float64(t.Counts[i]))
	}
	return out
}

// decodeFreq parses encodeFreq's layout back into the table. A vector
// no table encodes to — values not strictly ascending in cmp.Compare
// order, a count that is not a positive integer — is corrupt: the merge
// it would enter needs ascending input, and a count a fold never makes
// would skew every answer the degraded gather gives.
func decodeFreq(v []float64) (exec.FreqTable, error) {
	if len(v)%2 != 0 {
		return exec.FreqTable{}, corruptf("freq vector of odd length %d", len(v))
	}
	t := exec.FreqTable{Values: make([]float64, len(v)/2), Counts: make([]int64, len(v)/2)}
	for i := range t.Values {
		x, c := v[2*i], v[2*i+1]
		if i > 0 && cmp.Compare(t.Values[i-1], x) >= 0 {
			return exec.FreqTable{}, corruptf("freq vector value %d (%g) not above %g", i, x, t.Values[i-1])
		}
		if !(c >= 1 && c <= 1<<53 && c == math.Trunc(c)) {
			return exec.FreqTable{}, corruptf("freq vector count %d is %g, not a positive integer", i, c)
		}
		t.Values[i], t.Counts[i] = x, int64(c)
	}
	return t, nil
}

// shardAttr keys a (column, shard) partial in the partials DB.
func shardAttr(col string, shard int) []string {
	return []string{col, "shard" + strconv.Itoa(shard)}
}

// Checkpoint recomputes every healthy shard's per-column partials,
// stores them (and the refreshed manifest) in the partials DB, and
// commits the whole set under the next shadow generation. A shard's
// partial is its chunks folded by the gather's own fold and merged in
// chunk order. Down shards keep their previous entries and generations —
// that is the point: the last good checkpoint is what a degraded read
// falls back to.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	live := make([]*shardState, 0, len(s.shards))
	for _, sh := range s.shards {
		if sh.health != Down {
			live = append(live, sh)
		}
	}
	s.mu.Unlock()

	numChunks, cols := len(exec.Chunks(s.rows, exec.DefaultChunk)), s.numericCols()
	for _, sh := range live {
		for _, col := range cols {
			parts := make([]summary.State, numChunks)
			if err := sh.fold(nil, col, true, true, parts); err != nil {
				return fmt.Errorf("shard: checkpoint %s %q: %w", sh.label, col, err)
			}
			st := merge(parts, true)
			s.partials.StoreCustom(fnMoments, shardAttr(col, sh.index), summary.VectorOf(encodeMoments(st.Moments)))
			if len(st.Freq.Values) <= maxFreqCheckpoint {
				s.partials.StoreCustom(fnFreq, shardAttr(col, sh.index), summary.VectorOf(encodeFreq(st.Freq)))
			}
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	gen := s.manStore.Generation() + 1
	man := &Manifest{
		View: s.name, Rows: s.rows, Chunk: exec.DefaultChunk,
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

// numericCols lists the schema's numeric columns, the ones a partial
// aggregates.
func (s *Store) numericCols() []string {
	var out []string
	for c := 0; c < s.schema.Len(); c++ {
		if a := s.schema.At(c); a.Kind != dataset.KindString {
			out = append(out, a.Name)
		}
	}
	return out
}

// stalePartial fetches shard i's checkpointed partial of col in the
// families asked for. ok=false when one of them was never checkpointed
// (or was too large) or does not decode.
func (s *Store) stalePartial(col string, i int, moments, freq bool) (st summary.State, gen uint64, ok bool) {
	if moments {
		v, ok := s.partial(fnMoments, col, i)
		var err error
		if st.Moments, err = decodeMoments(v); !ok || err != nil {
			return st, 0, false
		}
	}
	if freq {
		v, ok := s.partial(fnFreq, col, i)
		var err error
		if st.Freq, err = decodeFreq(v); !ok || err != nil {
			return st, 0, false
		}
	}
	s.mu.Lock()
	gen = s.shards[i].ckptGen
	s.mu.Unlock()
	return st, gen, true
}

// partial is shard i's checkpointed vector for (fn, col).
func (s *Store) partial(fn, col string, i int) ([]float64, bool) {
	r, ok := s.partials.Lookup(fn, shardAttr(col, i)...)
	return r.Vector, ok && r.Kind == summary.VectorResult
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
