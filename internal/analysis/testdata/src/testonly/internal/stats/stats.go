// Package stats is the test-only fixture: declarations under internal/
// that no non-test file names.
package stats

import "fmt"

// Mean is called by cmd/tool: referenced, no finding.
func Mean(xs []float64) float64 {
	return sum(xs) / float64(len(xs))
}

// sum is called by Mean: referenced inside its own package.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// MeanChunks is the second implementation only a test would call.
func MeanChunks(xs []float64, chunk int) float64 {
	return Mean(xs)
}

// Summary is built and printed by cmd/tool.
type Summary struct{ N int }

// String satisfies fmt.Stringer: exempt by name.
func (s Summary) String() string { return fmt.Sprint(s.N) }

// Extremes is an accessor nothing serves.
func (s Summary) Extremes() (lo, hi int) { return 0, s.N }

// Tracker is a type nothing constructs.
type Tracker struct{ passes int }

// TrimmedMean is kept on purpose, with the reason on record.
//
//lint:allow test-only paper-named leaf operator
func TrimmedMean(xs []float64) float64 { return Mean(xs) }

// KolmogorovSmirnov's allow has no reason: the directive is a finding
// and suppresses nothing.
//
//lint:allow test-only
func KolmogorovSmirnov(xs []float64) float64 { return 0 }

// Window is built by cmd/tool, which calls its Width.
type Window struct{ Lo, Hi int }

// Width is called by cmd/tool: referenced, no finding.
func (w Window) Width() int { return w.Hi - w.Lo }

// Width on Summary shares its name with Window.Width, which cmd/tool
// calls; nothing calls this one, so it is a finding.
func (s Summary) Width() int { return s.N }

// Shape is a sealed interface: only this package's types satisfy it.
type Shape interface{ shape() }

// Circle is a Shape, built by cmd/tool.
type Circle struct{}

// shape is the seal. Nothing calls it by name, but Circle satisfies the
// tree interface that declares it: no finding.
func (Circle) shape() {}
