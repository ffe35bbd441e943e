package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one record of the traced run, taken from the benchmark's own
// files only, around the calls into the program: one "stmt" span per
// statement of the traced pass, then one span per ladder rung, each rung
// a child of the rung above it. Rung spans also carry the per-operation
// cost the rung measured.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`          // 0 = root
	Session int     `json:"session"`         // issuing session of a stmt span
	Stmt    int     `json:"stmt"`            // statement index within the session; -1 on ladder rungs
	Name    string  `json:"name"`            // "stmt" or the rung's name
	Class   string  `json:"class,omitempty"` // statement class
	StartNs int64   `json:"start_ns"`        // since the traced run began
	EndNs   int64   `json:"end_ns"`
	Ops     int     `json:"ops,omitempty"`       // operations the rung timed
	NsOp    float64 `json:"ns_op,omitempty"`     // median ns per operation
	AllocOp float64 `json:"allocs_op,omitempty"` // allocations per operation
	BytesOp float64 `json:"bytes_op,omitempty"`  // bytes allocated per operation
}

// stmtSpan is a statement span as recorded on the statement path: two
// clock readings, nothing for the collector to scan. Its position in
// the session's recorder is the statement index.
type stmtSpan struct{ start, end int64 }

// tracer holds the traced run's clock origin and the ladder's rung
// spans. Statement spans are appended by each session to its own
// recorder, so recording takes no lock on the statement path; ids are
// assigned when the file is written.
type tracer struct {
	epoch time.Time
	rungs []span // Parent holds the index+1 of the parent rung until write
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// rung records one ladder rung under the named parent rung ("" = root)
// and returns it for the caller to fill in.
func (t *tracer) rung(name, parent string, t0, t1 time.Time) *span {
	sp := span{Stmt: -1, Name: name, StartNs: t.since(t0), EndNs: t.since(t1)}
	for i := range t.rungs {
		if t.rungs[i].Name == parent {
			sp.Parent = i + 1
		}
	}
	t.rungs = append(t.rungs, sp)
	return &t.rungs[len(t.rungs)-1]
}

// write stores the traced pass's statement spans and the ladder's rung
// spans as JSON lines.
func (t *tracer) write(dir, workload string, p *pass) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	id := 0
	for s, rec := range p.recs {
		for i, ss := range rec.spans {
			id++
			sp := span{ID: id, Session: s, Stmt: i, Name: "stmt", Class: classNames[rec.st[i].class], StartNs: ss.start, EndNs: ss.end}
			if err := enc.Encode(sp); err != nil {
				f.Close()
				return err
			}
		}
	}
	for i, sp := range t.rungs {
		sp.ID = id + 1 + i
		if sp.Parent > 0 {
			sp.Parent += id
		}
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
