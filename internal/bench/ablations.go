package bench

import (
	"fmt"
	"math/rand"

	"statdb/internal/dataset"
	"statdb/internal/index"
	"statdb/internal/medwin"
	"statdb/internal/relalg"
	"statdb/internal/rules"
	"statdb/internal/storage"
	"statdb/internal/view"
	"statdb/internal/workload"
)

// AblationClustering measures the Section 4.1 choice of clustering the
// Summary Database on attribute name: finding all cached functions of one
// attribute via a clustered prefix scan vs examining every entry.
func AblationClustering() (*Table, error) {
	t := &Table{
		ID:     "A1",
		Title:  "Ablation — Summary DB clustering on attribute name",
		Claim:  "clustering on attribute lets an update touch only its own attribute's entries",
		Header: []string{"attributes", "functions each", "entries probed (clustered scan)", "entries probed (full scan)", "reduction"},
	}
	for _, nAttrs := range []int{10, 100, 1000} {
		const fnsPer = 8
		idx := index.New()
		type ent struct{ attr string }
		var entries []ent
		for a := 0; a < nAttrs; a++ {
			attr := fmt.Sprintf("ATTR%04d", a)
			for f := 0; f < fnsPer; f++ {
				key := index.Key(attr, fmt.Sprintf("fn%d", f))
				if err := idx.Insert(key, int64(len(entries))); err != nil {
					return nil, err
				}
				entries = append(entries, ent{attr: attr})
			}
		}
		target := "ATTR0000"
		clustered := 0
		idx.ScanPrefix(index.Key(target), func([]byte, int64) bool {
			clustered++
			return true
		})
		full := 0
		for _, e := range entries {
			full++
			_ = e.attr == target
		}
		if clustered != fnsPer {
			return nil, fmt.Errorf("clustered scan probed %d entries, want %d", clustered, fnsPer)
		}
		t.AddRow(nAttrs, fnsPer, clustered, full, ratio(float64(full), float64(clustered)))
	}
	t.Finding = "the clustered prefix scan probes exactly the updated attribute's entries; unclustered invalidation scales with the whole cache"
	return t, nil
}

// AblationWindowWidth sweeps the Section 4.2 footnote-2 knob: how wide
// should the median window be?
func AblationWindowWidth() (*Table, error) {
	t := &Table{
		ID:     "A2",
		Title:  "Ablation — median window width vs regeneration frequency",
		Claim:  "footnote 2: more buckets when the density around the new median is uncertain",
		Header: []string{"window width", "updates", "rebuild passes", "total values touched", "vs width 100"},
	}
	const n, updates = 20000, 2000
	run := func(capacity int) (rebuilds int, touched int64, err error) {
		c := randomColumn(n, 123)
		w, err := medwin.NewMedian(c.xs, nil, capacity)
		if err != nil {
			return 0, 0, err
		}
		touched = int64(n)
		rng := rand.New(rand.NewSource(9))
		for u := 0; u < updates; u++ {
			i := rng.Intn(n)
			old := c.xs[i]
			nv := float64(rng.Intn(100000))
			c.xs[i] = nv
			if err := w.Delete(old); err != nil {
				return 0, 0, err
			}
			w.Insert(nv)
			touched += 2
			if w.NeedsRebuild() {
				w.Rebuild(c.xs, nil)
				touched += int64(n)
			}
		}
		return w.Rebuilds(), touched, nil
	}
	_, base, err := run(100)
	if err != nil {
		return nil, err
	}
	for _, capacity := range []int{25, 100, 400, 1600} {
		rebuilds, touched, err := run(capacity)
		if err != nil {
			return nil, err
		}
		t.AddRow(capacity, updates, rebuilds, touched, ratio(float64(touched), float64(base)))
	}
	t.Finding = "regeneration frequency falls roughly linearly with width; beyond ~100 buckets the marginal saving is small for random updates — the paper's 'say, 100' is well placed"
	return t, nil
}

// AblationAutoReorg measures dynamic reorganization (Section 2.7):
// migrating a view from row layout to transposed once the observed access
// pattern is column-dominated.
func AblationAutoReorg() (*Table, error) {
	// A larger census than the default so per-scan transfer costs
	// dominate seeks and migration can pay for itself.
	census, err := workload.Census(workload.CensusSpec{Regions: 72, Races: 5, AgeGroups: 4, Educations: 6, Seed: 1980})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "A3",
		Title:  "Ablation — dynamic reorganization from observed access patterns",
		Claim:  "intelligent access methods interpret reference patterns and reorganize storage dynamically",
		Header: []string{"workload", "static row (ticks)", "static transposed (ticks)", "adaptive (ticks)", "adaptive vs best static"},
	}

	type workloadOp struct {
		column bool // column scan vs full-row read
		attr   string
		row    int
	}
	mkWorkload := func(colFrac float64, seed int64) []workloadOp {
		rng := rand.New(rand.NewSource(seed))
		names := census.Schema().Names()
		ops := make([]workloadOp, 600)
		for i := range ops {
			if rng.Float64() < colFrac {
				ops[i] = workloadOp{column: true, attr: names[5+rng.Intn(2)]} // measures
			} else {
				ops[i] = workloadOp{row: rng.Intn(census.Rows())}
			}
		}
		return ops
	}

	runRow := func(ops []workloadOp) (int64, error) {
		dev := storage.NewMemDevice(storage.DefaultDiskCost())
		heap := storage.NewHeapFile(storage.NewBufferPool(dev, 4), census.Schema())
		rids, err := heap.Load(census)
		if err != nil {
			return 0, err
		}
		dev.ResetStats()
		for _, op := range ops {
			if op.column {
				if err := heap.Scan(func(storage.RID, dataset.Row) bool { return true }); err != nil {
					return 0, err
				}
			} else if _, err := heap.Get(rids[op.row]); err != nil {
				return 0, err
			}
		}
		return dev.Stats().Ticks, nil
	}
	runCol := func(ops []workloadOp) (int64, error) {
		dev := storage.NewMemDevice(storage.DefaultDiskCost())
		cf, err := loadTransposed(dev, census)
		if err != nil {
			return 0, err
		}
		dev.ResetStats()
		for _, op := range ops {
			if op.column {
				if err := cf.ScanColumn(op.attr, func(int, dataset.Value) bool { return true }); err != nil {
					return 0, err
				}
			} else if _, err := cf.RowAt(op.row); err != nil {
				return 0, err
			}
		}
		return dev.Stats().Ticks, nil
	}
	// Adaptive: start in row layout; after an observation window,
	// estimate the per-op cost of each layout from the observed mix using
	// the device cost model, and migrate once if transposed is projected
	// cheaper (paying the migration write).
	runAdaptive := func(ops []workloadOp) (int64, error) {
		dev := storage.NewMemDevice(storage.DefaultDiskCost())
		heap := storage.NewHeapFile(storage.NewBufferPool(dev, 4), census.Schema())
		rids, err := heap.Load(census)
		if err != nil {
			return 0, err
		}
		dev.ResetStats()
		var cf transposedFile
		colScans, rowReads := 0, 0
		migrated := false
		cost := storage.DefaultDiskCost()
		width := census.Schema().Len()
		heapPages := int64(heap.NumPages())
		colPages := int64((census.Rows() + 479) / 480) // one column's pages
		for i, op := range ops {
			if migrated {
				if op.column {
					if err := cf.ScanColumn(op.attr, func(int, dataset.Value) bool { return true }); err != nil {
						return 0, err
					}
				} else if _, err := cf.RowAt(op.row); err != nil {
					return 0, err
				}
				continue
			}
			if op.column {
				colScans++
				if err := heap.Scan(func(storage.RID, dataset.Row) bool { return true }); err != nil {
					return 0, err
				}
			} else {
				rowReads++
				if _, err := heap.Get(rids[op.row]); err != nil {
					return 0, err
				}
			}
			if i%20 == 19 {
				scan, read := int64(colScans), int64(rowReads)
				rowCost := scan*(cost.SeekCost+heapPages*cost.TransferCost) +
					read*(cost.SeekCost+cost.TransferCost)
				colCost := scan*(cost.SeekCost+colPages*cost.TransferCost) +
					read*int64(width)*(cost.SeekCost+cost.TransferCost)
				if colCost*5 < rowCost*4 { // 20% hysteresis
					cf, err = loadTransposed(dev, census)
					if err != nil {
						return 0, err
					}
					migrated = true
				}
			}
		}
		return dev.Stats().Ticks, nil
	}

	for _, w := range []struct {
		name    string
		colFrac float64
	}{
		{"column-dominated (99% scans)", 0.99},
		{"row-dominated (10% scans)", 0.1},
	} {
		ops := mkWorkload(w.colFrac, 77)
		rowT, err := runRow(ops)
		if err != nil {
			return nil, err
		}
		colT, err := runCol(ops)
		if err != nil {
			return nil, err
		}
		adT, err := runAdaptive(ops)
		if err != nil {
			return nil, err
		}
		best := rowT
		if colT < best {
			best = colT
		}
		t.AddRow(w.name, rowT, colT, adT, ratio(float64(adT), float64(best)))
	}
	t.Finding = "the adaptive view converges to the better static layout after the observation window, paying a one-time migration cost on column-dominated workloads and avoiding migration on row-dominated ones"
	return t, nil
}

// transposedFile is the subset of colstore.File the ablation uses,
// avoiding an interface dance.
type transposedFile interface {
	ScanColumn(name string, fn func(row int, v dataset.Value) bool) error
	RowAt(i int) (dataset.Row, error)
}

func loadTransposed(dev *storage.MemDevice, ds *dataset.Dataset) (transposedFile, error) {
	return colstoreLoad(dev, ds)
}

// AblationUndo compares the undo-granularity choices: physical
// before-images vs logical replay.
func AblationUndo() (*Table, error) {
	t := &Table{
		ID:     "A4",
		Title:  "Ablation — undo granularity: physical before-images vs logical replay",
		Claim:  "keeping a history of updates enables rolling a view back; the representation trades log size against undo cost",
		Header: []string{"rows", "updates", "mode", "log cells stored", "cells touched by one undo"},
	}
	for _, mode := range []view.UndoMode{view.UndoPhysical, view.UndoReplay} {
		const n, updates = 5000, 10
		md := workload.Microdata(n, 3)
		mdb := rules.NewManagementDB()
		v, err := view.New(md, mdb, rules.ViewDef{Name: "u", Analyst: "a", Source: "raw", Ops: []string{"x"}}, view.Options{UndoMode: mode})
		if err != nil {
			return nil, err
		}
		logCells := 0
		for u := 0; u < updates; u++ {
			changed, err := v.UpdateWhere("SALARY",
				relalg.Cmp{Attr: "AGE", Op: relalg.Eq, Val: dataset.Int(int64(20 + u))},
				dataset.Float(12345+float64(u)))
			if err != nil {
				return nil, err
			}
			if mode == view.UndoPhysical {
				logCells += changed
			} else {
				logCells++ // one logical op per update
			}
		}
		// Cells touched by one undo: physical restores the last update's
		// cells; replay rewrites the whole view and reapplies the rest.
		var touched int
		last, _ := v.History().Last()
		if mode == view.UndoPhysical {
			touched = len(last.Rows)
		} else {
			touched = n // full rebuild
		}
		if err := v.Undo(); err != nil {
			return nil, err
		}
		t.AddRow(n, updates, mode.String(), logCells, touched)
	}
	t.Finding = "physical images undo in O(changed cells) but log every cell; replay logs one op per update but rebuilds the view to undo — the paper's history serves both depending on pressure"
	return t, nil
}
