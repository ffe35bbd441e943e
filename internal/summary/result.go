// Package summary implements the Summary Database of Section 3.2: a
// per-view cache of function-execution results plus standing descriptive
// statistics. Each entry maps a (function name, attribute names) pair to
// a result of varying type — scalar, vector, histogram or text — exactly
// the three-column logical layout of Figure 4. Entries are clustered on
// their first attribute and reached through a secondary index on
// (attribute, function), an entry over several attributes by each of
// them, so an update to one attribute finds all its cached functions with
// one clustered scan (Section 4.1). Every result fills through one
// protocol: ScalarFrom for the built-in functions, ResultFrom for any
// other over a tuple of attributes.
//
// Updates to the view propagate into the cache according to the
// Management Database's per-function strategy: the Koenig–Paige
// aggregates and mode and unique re-finalized from a state kept per
// attribute, sliding order-statistic windows for quantiles, and
// invalidate-lazily for everything else (Sections 4.2–4.3).
package summary

import (
	"fmt"
	"strconv"
	"strings"

	"statdb/internal/stats"
)

// ResultKind discriminates the varying-length result types of Figure 4.
type ResultKind uint8

const (
	// ScalarResult is a single number (a mean, a median).
	ScalarResult ResultKind = iota
	// VectorResult is a numeric vector (quantiles, frequencies).
	VectorResult
	// HistogramResult is a binned frequency table (two vectors: ranges
	// and counts, as Section 3.2 describes).
	HistogramResult
	// TextResult is a verbal description of the data set — "a statement
	// of how far analysis has proceeded, what difficulties have been
	// encountered" (Section 3.2).
	TextResult
)

func (k ResultKind) String() string {
	switch k {
	case ScalarResult:
		return "scalar"
	case VectorResult:
		return "vector"
	case HistogramResult:
		return "histogram"
	case TextResult:
		return "text"
	}
	return "unknown"
}

// Result is one varying-length cached value.
type Result struct {
	Kind   ResultKind
	Scalar float64
	Vector []float64
	Hist   *stats.Histogram
	Text   string
}

// ScalarOf wraps a float as a Result.
func ScalarOf(v float64) Result { return Result{Kind: ScalarResult, Scalar: v} }

// VectorOf wraps a vector as a Result.
func VectorOf(v []float64) Result { return Result{Kind: VectorResult, Vector: v} }

// HistogramOf wraps a histogram as a Result.
func HistogramOf(h *stats.Histogram) Result { return Result{Kind: HistogramResult, Hist: h} }

// TextOf wraps a note as a Result.
func TextOf(s string) Result { return Result{Kind: TextResult, Text: s} }

// String renders the result for the Figure 4 table.
func (r Result) String() string {
	switch r.Kind {
	case ScalarResult:
		// Integral values print plainly (Figure 4 shows "33,422,988",
		// not exponent notation).
		if r.Scalar == float64(int64(r.Scalar)) && r.Scalar < 1e15 && r.Scalar > -1e15 {
			return strconv.FormatInt(int64(r.Scalar), 10)
		}
		return strconv.FormatFloat(r.Scalar, 'g', -1, 64)
	case VectorResult:
		parts := make([]string, len(r.Vector))
		for i, v := range r.Vector {
			parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		return "[" + strings.Join(parts, " ") + "]"
	case HistogramResult:
		if r.Hist == nil {
			return "histogram(nil)"
		}
		return fmt.Sprintf("histogram(%d bins, %d values)", r.Hist.Bins(), r.Hist.Total())
	case TextResult:
		return r.Text
	}
	return "?"
}
