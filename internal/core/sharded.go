package core

// Sharded scale-out: DBMS-level wiring for the scatter-gather backend
// of internal/shard. ShardView partitions a registered view's rows
// across N devices; the store reports into the DBMS registry (shard.*
// counters, labeled per-shard fault/retry families) and its spans into
// the system tracer, so /statz and explain see shard health the same
// way they see every other subsystem.

import (
	"fmt"

	"statdb/internal/obs"
	"statdb/internal/shard"
)

// ShardView builds a sharded scatter-gather backing for the named view
// from its current rows and attaches it. cfg.Registry and the tracer
// default to the DBMS's own; cfg.Shards and the rest of the config are
// the caller's. Re-sharding (calling again) replaces the attachment.
func (d *DBMS) ShardView(name string, cfg shard.Config) (*shard.Store, error) {
	d.mu.Lock()
	v, ok := d.views[name]
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: no view %q", name)
	}
	if cfg.Registry == nil {
		cfg.Registry = d.metrics
	}
	st, err := shard.New(name, v.Dataset(), cfg)
	if err != nil {
		return nil, err
	}
	st.SetTracer(d.tracer)
	v.AttachShards(st)
	return st, nil
}

// shardMetrics merges every sharded backing's pool registries into s —
// Metrics() calls this so the labeled per-shard storage families roll
// up beside the view pools.
func (d *DBMS) shardMetrics(s *obs.Snapshot) {
	for _, v := range d.viewsSnapshot() {
		if st, _ := v.ShardStore(); st != nil {
			s.Merge(st.Metrics())
		}
	}
}
