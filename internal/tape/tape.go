// Package tape simulates the slow, sequential secondary storage the raw
// statistical database lives on (Section 2.3: "because of its enormous
// size, the raw database will almost always reside on slow secondary
// storage devices such as tapes"). Access is strictly sequential: a read
// positions the head by rewinding and skipping forward, then transfers
// blocks in order. The cost model makes the paper's amortization argument
// for concrete views measurable.
package tape

import (
	"fmt"
	"sync"

	"statdb/internal/dataset"
	"statdb/internal/storage"
)

// BlockRows is the number of records stored per tape block.
const BlockRows = 64

// CostModel assigns virtual ticks to tape operations. Defaults make a
// tape block transfer as fast as a sequential disk transfer but impose a
// large rewind cost and a per-block skip cost, which matches the
// ~3-orders-of-magnitude random-access gap of 1980s tape vs disk.
type CostModel struct {
	RewindCost   int64 // full rewind to beginning of tape
	SkipCost     int64 // skipping one block without transferring it
	TransferCost int64 // reading one block
}

// DefaultCost is the tape cost model used by the experiments.
func DefaultCost() CostModel {
	return CostModel{RewindCost: 5000, SkipCost: 5, TransferCost: 5}
}

// Stats accumulates tape activity in virtual ticks.
type Stats struct {
	Rewinds   int64
	Skips     int64
	Transfers int64
	Ticks     int64
}

func (s Stats) String() string {
	return fmt.Sprintf("rewinds=%d skips=%d transfers=%d ticks=%d", s.Rewinds, s.Skips, s.Transfers, s.Ticks)
}

type file struct {
	name       string
	schema     *dataset.Schema
	startBlock int
	blocks     [][]byte // each block encodes up to BlockRows rows
	rows       int
}

// Archive is a single tape volume holding named files end to end.
// Writing is append-only; reading is sequential with explicit positioning
// costs. A tape drive has one head, so operations serialize behind a
// mutex: concurrent readers take turns, each paying its own positioning
// cost from wherever the previous request left the head.
type Archive struct {
	mu     sync.Mutex
	cost   CostModel
	files  []*file
	byName map[string]*file
	blocks int // total blocks on tape
	head   int // current head position in blocks
	stats  Stats
}

// NewArchive creates an empty tape with the given cost model.
func NewArchive(cost CostModel) *Archive {
	return &Archive{cost: cost, byName: make(map[string]*file)}
}

// Stats returns accumulated activity.
func (a *Archive) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// ResetStats zeroes the counters (head position is preserved — resetting
// statistics does not move the tape).
func (a *Archive) ResetStats() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats = Stats{}
}

// Files lists the archived file names in tape order.
func (a *Archive) Files() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, len(a.files))
	for i, f := range a.files {
		out[i] = f.name
	}
	return out
}

// Write appends ds to the end of the tape under name. Rewriting an
// existing name is an error: tapes are append-only archives.
func (a *Archive) Write(name string, ds *dataset.Dataset) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if name == "" {
		return fmt.Errorf("tape: empty file name")
	}
	if _, exists := a.byName[name]; exists {
		return fmt.Errorf("tape: file %q already archived", name)
	}
	f := &file{name: name, schema: ds.Schema(), startBlock: a.blocks, rows: ds.Rows()}
	for base := 0; base < ds.Rows(); base += BlockRows {
		end := base + BlockRows
		if end > ds.Rows() {
			end = ds.Rows()
		}
		var blk []byte
		for i := base; i < end; i++ {
			blk = storage.EncodeRow(blk, ds.RowAt(i))
		}
		f.blocks = append(f.blocks, blk)
	}
	a.files = append(a.files, f)
	a.byName[name] = f
	a.blocks += len(f.blocks)
	// Writing happens at the end: charge a skip to end from wherever the
	// head is, plus transfers.
	a.seekTo(a.blocks - len(f.blocks))
	a.stats.Transfers += int64(len(f.blocks))
	a.stats.Ticks += int64(len(f.blocks)) * a.cost.TransferCost
	a.head = a.blocks
	return nil
}

// seekTo positions the head at block b, rewinding if b is behind the head.
func (a *Archive) seekTo(b int) {
	if b < a.head {
		a.stats.Rewinds++
		a.stats.Ticks += a.cost.RewindCost
		a.head = 0
	}
	if skip := b - a.head; skip > 0 {
		a.stats.Skips += int64(skip)
		a.stats.Ticks += int64(skip) * a.cost.SkipCost
	}
	a.head = b
}

// Schema returns the schema of the named file.
func (a *Archive) Schema(name string) (*dataset.Schema, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	f, ok := a.byName[name]
	if !ok {
		return nil, fmt.Errorf("tape: no file %q", name)
	}
	return f.schema, nil
}

// Rows returns the record count of the named file.
func (a *Archive) Rows(name string) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	f, ok := a.byName[name]
	if !ok {
		return 0, fmt.Errorf("tape: no file %q", name)
	}
	return f.rows, nil
}

// Read streams every record of the named file through fn in order,
// charging positioning plus one transfer per block. fn returning false
// stops the read early (the remaining blocks are not charged — the drive
// stops transferring).
func (a *Archive) Read(name string, fn func(row dataset.Row) bool) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	f, ok := a.byName[name]
	if !ok {
		return fmt.Errorf("tape: no file %q", name)
	}
	a.seekTo(f.startBlock)
	width := f.schema.Len()
	remaining := f.rows
	for _, blk := range f.blocks {
		a.stats.Transfers++
		a.stats.Ticks += a.cost.TransferCost
		a.head++
		n := BlockRows
		if remaining < n {
			n = remaining
		}
		remaining -= n
		rows, err := decodeBlock(blk, width, n)
		if err != nil {
			return fmt.Errorf("tape: file %q block %d: %w", name, a.head-f.startBlock-1,
				&storage.CorruptError{Page: storage.InvalidPage, Slot: -1, Off: -1,
					Detail: "tape block decode", Cause: err})
		}
		for _, r := range rows {
			if !fn(r) {
				return nil
			}
		}
	}
	return nil
}

// Materialize reads the entire named file into memory — the first step of
// view materialization.
func (a *Archive) Materialize(name string) (*dataset.Dataset, error) {
	sch, err := a.Schema(name)
	if err != nil {
		return nil, err
	}
	rows, err := a.Rows(name)
	if err != nil {
		return nil, err
	}
	out := dataset.New(sch)
	out.Grow(rows)
	out.SetName(name)
	var appendErr error
	if err := a.Read(name, func(r dataset.Row) bool {
		if err := out.Append(r); err != nil {
			// The block decoded but the schema rejects the row: the
			// archived bytes were wrong despite decoding. Report it as
			// corruption instead of decoding garbage into the view.
			appendErr = fmt.Errorf("tape: file %q: %w", name,
				&storage.CorruptError{Page: storage.InvalidPage, Slot: -1, Off: -1,
					Detail: "archived row rejected by schema", Cause: err})
			return false
		}
		return true
	}); err != nil {
		return nil, err
	}
	if appendErr != nil {
		return nil, appendErr
	}
	return out, nil
}

func decodeBlock(blk []byte, width, n int) ([]dataset.Row, error) {
	// Rows are concatenated; decode one at a time by re-slicing. The row
	// codec needs explicit lengths, so walk values manually via a
	// consuming decoder.
	rows := make([]dataset.Row, 0, n)
	rest := blk
	for i := 0; i < n; i++ {
		row, tail, err := storage.DecodeRowPrefix(rest, width)
		if err != nil {
			return nil, fmt.Errorf("block row %d: %w", i, err)
		}
		rows = append(rows, row)
		rest = tail
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing bytes in block", len(rest))
	}
	return rows, nil
}
