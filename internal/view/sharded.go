package view

// Sharded backing: a view may carry a shard.Store holding a partitioned
// copy of its rows across independent devices. The copy is a third input
// form the view offers its Summary Database beside rows and runs: a
// miss scatters, the gather's merged partials are finalized by the same
// aggregate table as every other form, and the result is cached like
// any other — so a repeat is a hit, not a second scatter. Losing a shard
// degrades the answer (returned with its provenance, never cached)
// instead of failing it. Unlike the transposed store, which receives
// every update write-through, the sharded copy is read-only: the first
// update marks it behind and the view stops offering it — the rows of
// record answer — until ShardView/AttachShards installs a fresh copy.

import (
	"statdb/internal/shard"
	"statdb/internal/summary"
)

// AttachShards attaches a sharded scatter-gather backing built from st.
// The store should have been built from this view's current rows (see
// core.DBMS.ShardView, which does exactly that).
func (v *View) AttachShards(st *shard.Store) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.shards, v.shardsBehind = st, false
	if v.tracer != nil {
		st.SetTracer(v.tracer)
	}
}

// ShardStore returns the attached sharded backing (nil when none) and
// whether the view has been updated since it was built — a copy that is
// behind is kept for inspection but answers nothing.
func (v *View) ShardStore() (st *shard.Store, behind bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.shards, v.shardsBehind
}

// gatherSource binds attr as a summary.GatherSource over the sharded
// copy (attached and current — computeReport checked), writing each
// gather's provenance to rep. Healthy-path states are bit-identical to
// the parallel unsharded engine's at the store's chunk size. Called with
// v.mu held, like columnSource.
func (v *View) gatherSource(attr string, rep *shard.Report) summary.GatherSource {
	st := v.shards
	return func(freq bool) (s summary.State, complete bool, err error) {
		v.countScan(attr)
		if freq {
			s.Freq, *rep, err = st.Freq(attr)
		} else {
			s.Moments, *rep, err = st.Moments(attr)
		}
		return s, !rep.Degraded(), err
	}
}
