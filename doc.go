// Package statdb is a reproduction of "A Framework for Research in
// Database Management for Statistical Analysis" (Boral, DeWitt, Bates;
// University of Wisconsin–Madison TR #465, February 1982; SIGMOD 1982).
//
// The library implements the paper's full architecture (Figure 3):
// concrete per-analyst views materialized from a raw database on
// simulated sequential storage, a Summary Database per view caching
// function results with rule-driven maintenance (finite-differenced
// aggregates, sliding median windows, lazy invalidation), and a shared
// Management Database of update rules, view definitions and undoable
// update histories — plus the substrates it depends on: a WiSS-like
// paged storage engine, transposed (column) files with run-length
// compression, a B+-tree index, relational operators, and a statistical
// function library.
//
// A shared chunked-execution engine (internal/exec) runs the
// column-shaped work — whole-column statistics, relational select and
// group-by, view materialization and Summary-Database recomputation —
// as fixed-size row chunks folded by a worker pool and merged in chunk
// order. Every row fold of a column — inline, through the pool, gathered
// from shards or run on the database machine — cuts it on one grid of
// 4096-row chunks, so every answer, floating-point moments included, is
// bit-identical at any worker count, and a column of at most one chunk
// is the serial operators exactly; core.DBMS.SetParallelism (default
// GOMAXPROCS, 1 = inline) sizes the pool.
//
// The engine's cross-package contracts — virtual-tick determinism,
// sentinel-error handling, goroutine and observability confinement,
// canonical metric names — are machine-checked at build time by the
// AST-based checker in internal/analysis (driver: cmd/statdb-vet,
// wired into `make lint`).
//
// See DESIGN.md for the system inventory and per-experiment index,
// EXPERIMENTS.md for the measured results, cmd/experiments for the
// reproduction suite, cmd/statdb for an interactive shell, and
// examples/ for runnable walkthroughs.
package statdb
