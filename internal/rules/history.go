package rules

import (
	"fmt"
	"sync"

	"statdb/internal/dataset"
)

// UpdateRecord is one entry of a view's update history. It carries both a
// logical description (what the analyst asked for) and a physical
// before-image (what changed), so the history serves the two purposes
// Section 3.2 gives it: rolling a view back, and letting other analysts
// audit what data-cleaning actions their predecessors took.
//
// An update is set-at-a-time — one attribute, one new value, a set of
// records — and so is its image: the attribute and value once, the
// changed records' indexes, and their old values as one typed vector.
type UpdateRecord struct {
	Seq         int64
	Analyst     string
	Description string          // e.g. `set AVE_SALARY = null where AVE_SALARY > 1000000`
	Attr        string          // the attribute that was set
	New         dataset.Value   // the value every changed cell received
	Rows        []int32         // the changed records, ascending (a view holds at most 2³¹−1)
	Old         *dataset.Vector // Old.At(k) is what record Rows[k] held before
}

// History is an append-only update log for one view with undo support.
// It is safe for concurrent use.
type History struct {
	mu      sync.Mutex
	records []UpdateRecord
}

// Append records one update.
func (h *History) Append(r UpdateRecord) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.records = append(h.records, r)
}

// Len returns the number of recorded updates.
func (h *History) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.records)
}

// Records returns a copy of the history, oldest first.
func (h *History) Records() []UpdateRecord {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]UpdateRecord, len(h.records))
	copy(out, h.records)
	return out
}

// PopLast removes and returns the most recent update for undoing.
func (h *History) PopLast() (UpdateRecord, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.records) == 0 {
		return UpdateRecord{}, fmt.Errorf("rules: history is empty")
	}
	r := h.records[len(h.records)-1]
	h.records = h.records[:len(h.records)-1]
	return r, nil
}

// Last returns the most recent update without removing it.
func (h *History) Last() (UpdateRecord, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.records) == 0 {
		return UpdateRecord{}, false
	}
	return h.records[len(h.records)-1], true
}
