package storage

import (
	"errors"
	"fmt"
)

// ErrCorrupt is the sentinel wrapped by every error that means "the
// bytes on the device do not decode": checksum mismatches, truncated or
// garbled records, impossible slot directories. Callers match it with
// errors.Is and choose a degrade path — the Summary Database drops the
// entry and recomputes from the backing view (the cache semantics of
// Section 3.2), the heap file skips the record during tolerant scans.
// ErrCorrupt is never returned for usage errors (bad arguments, unknown
// pages); those stay plain errors.
var ErrCorrupt = errors.New("storage: corrupt data")

// ErrTransient is the sentinel wrapped by device errors that may succeed
// on retry, such as an injected fault-device hiccup. The buffer pool
// retries these with bounded backoff, charging the wait through the
// cost model.
var ErrTransient = errors.New("storage: transient device error")

// CorruptError locates corruption: which page, and where within it. It
// wraps ErrCorrupt (and the decode error that exposed it, when any), so
// errors.Is(err, ErrCorrupt) matches.
type CorruptError struct {
	Page PageID // InvalidPage when the unit is not page-addressed
	Slot int    // slot within the page; -1 when unknown or whole-page
	Off  int    // byte offset within the page; -1 when unknown
	// Detail says what failed to decode ("page checksum", "row codec").
	Detail string
	// Cause is the underlying decode error, when one exists.
	Cause error
}

func (e *CorruptError) Error() string {
	loc := "unaddressed"
	if e.Page != InvalidPage {
		loc = fmt.Sprintf("page %d", e.Page)
		if e.Slot >= 0 {
			loc += fmt.Sprintf(" slot %d", e.Slot)
		}
		if e.Off >= 0 {
			loc += fmt.Sprintf(" offset %d", e.Off)
		}
	}
	msg := fmt.Sprintf("storage: corrupt %s (%s)", loc, e.Detail)
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg
}

// Unwrap exposes both the ErrCorrupt sentinel and the decode cause.
func (e *CorruptError) Unwrap() []error {
	if e.Cause != nil {
		return []error{ErrCorrupt, e.Cause}
	}
	return []error{ErrCorrupt}
}

// TransientError is a retryable device failure, wrapping ErrTransient.
type TransientError struct {
	Op   string // "read" or "write"
	Page PageID
}

func (e *TransientError) Error() string {
	return fmt.Sprintf("storage: transient %s fault on page %d", e.Op, e.Page)
}

// Unwrap exposes the ErrTransient sentinel.
func (e *TransientError) Unwrap() error { return ErrTransient }
