package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"statdb/internal/core"
)

// The oracle is the benchmark's own reference: shadow columns copied
// from the generator's output (never read back from the program), every
// update and undo applied by its own loop, every answer recomputed with
// plain sort/loop code. The definitions it uses are the ones the
// program documents, written down here next to the function they must
// agree with:
//
//	count    number of non-null observations            stats.Count
//	sum      left-to-right float64 sum                  stats.Sum
//	mean     sum / count                                stats.Mean
//	variance two-pass, divisor n-1 (sample variance)    stats.Variance
//	sd       sqrt(variance)                             stats.StdDev
//	min max  extreme non-null observation               stats.Min, stats.Max
//	median   quantile 0.5                               stats.Median
//	q1 q3    quantile 0.25, 0.75                        stats.Quantile
//	         type-7 (R default): h = p(n-1), lo = floor(h),
//	         sorted[lo] + (h-lo)(sorted[lo+1]-sorted[lo]), n = 1 and
//	         lo >= n-1 returning the last order statistic
//	mode     most frequent value, ties to the smaller   stats.Mode
//	unique   distinct non-null values                   stats.UniqueCount
//	histogram equal-width bins over [min, max], edge i = min + width*i,
//	         top edge = max, bins half-open except the last
//	                                                    stats.NewHistogram
//	correlate Pearson r over pairs complete in both     stats.Correlation
//
// Order-insensitive answers (count min max median q1 q3 mode unique,
// histogram counts, rows updated) must match exactly — the program
// prints scalars with %g, which round-trips a float64. Moment answers
// (sum mean variance sd) may differ by regrouping and must match to
// 1e-9 relative. Answers the program prints rounded (describe's %.6g,
// correlate's %.4f) must match to the printed resolution.

const (
	momentTol   = 1e-9
	describeTol = 1e-5 // %.6g keeps six significant digits
	corrTol     = 6e-5 // %.4f keeps four decimals
)

type shadowCol struct {
	xs     []float64
	valid  []bool
	sorted []float64 // non-null values ascending; nil when stale
}

func (c *shadowCol) sortedVals() []float64 {
	if c.sorted == nil {
		vals := make([]float64, 0, len(c.xs))
		for i, x := range c.xs {
			if c.valid[i] {
				vals = append(vals, x)
			}
		}
		sort.Float64s(vals)
		c.sorted = vals
	}
	return c.sorted
}

// undoRec is the before-image of one update.
type undoRec struct {
	attr  string
	rows  []int
	xs    []float64
	valid []bool
}

type shadowView struct {
	cols  map[string]*shadowCol
	undos []undoRec
}

type oracle struct {
	views map[string]*shadowView
}

func newOracle() *oracle { return &oracle{views: map[string]*shadowView{}} }

// addView copies the rows and measures a view keeps out of the survey.
func (o *oracle) addView(s *survey, v viewSpec) {
	sv := &shadowView{cols: map[string]*shadowCol{}}
	keep := map[string]bool{}
	for _, name := range v.measures {
		keep[name] = true
	}
	for _, m := range s.measures {
		if keep[m.name] {
			sv.cols[m.name] = &shadowCol{
				xs:    append([]float64(nil), m.xs[v.lo:v.hi]...),
				valid: append([]bool(nil), m.valid[v.lo:v.hi]...),
			}
		}
	}
	o.views[v.name] = sv
}

func quantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := p * float64(n-1)
	lo := int(h)
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// scalar recomputes fn over the shadow column. Every generated column
// keeps far more than two non-null values, so no aggregate is undefined.
func (o *oracle) scalar(view, fn, attr string) float64 {
	c := o.views[view].cols[attr]
	switch fn {
	case "median":
		return quantileSorted(c.sortedVals(), 0.5)
	case "q1":
		return quantileSorted(c.sortedVals(), 0.25)
	case "q3":
		return quantileSorted(c.sortedVals(), 0.75)
	case "min":
		return c.sortedVals()[0]
	case "max":
		s := c.sortedVals()
		return s[len(s)-1]
	case "unique":
		s := c.sortedVals()
		n := 1
		for i := 1; i < len(s); i++ {
			if s[i] != s[i-1] {
				n++
			}
		}
		return float64(n)
	case "mode":
		s := c.sortedVals()
		best, bestN, curN := s[0], 1, 1
		for i := 1; i < len(s); i++ {
			if s[i] == s[i-1] {
				curN++
			} else {
				curN = 1
			}
			if curN > bestN {
				best, bestN = s[i], curN
			}
		}
		return best
	}
	n, sum := 0, 0.0
	for i, x := range c.xs {
		if c.valid[i] {
			n++
			sum += x
		}
	}
	switch fn {
	case "count":
		return float64(n)
	case "sum":
		return sum
	case "mean":
		return sum / float64(n)
	}
	mean, ss := sum/float64(n), 0.0
	for i, x := range c.xs {
		if c.valid[i] {
			ss += (x - mean) * (x - mean)
		}
	}
	if fn == "variance" {
		return ss / float64(n-1)
	}
	return math.Sqrt(ss / float64(n-1)) // sd
}

// update applies "set attr = val where predAttr = k" and returns the
// rows changed: a row whose cell already equals val is not a change.
func (o *oracle) update(view, attr string, val float64, predAttr string, k float64) int {
	sv := o.views[view]
	c, p := sv.cols[attr], sv.cols[predAttr]
	rec := undoRec{attr: attr}
	for i := range c.xs {
		if !p.valid[i] || p.xs[i] != k || (c.valid[i] && c.xs[i] == val) {
			continue
		}
		rec.rows = append(rec.rows, i)
		rec.xs = append(rec.xs, c.xs[i])
		rec.valid = append(rec.valid, c.valid[i])
		c.xs[i], c.valid[i] = val, true
	}
	if len(rec.rows) > 0 {
		sv.undos = append(sv.undos, rec)
		c.sorted = nil
	}
	return len(rec.rows)
}

// undo restores the before-image of the view's most recent update.
func (o *oracle) undo(view string) {
	sv := o.views[view]
	rec := sv.undos[len(sv.undos)-1]
	sv.undos = sv.undos[:len(sv.undos)-1]
	c := sv.cols[rec.attr]
	for j, i := range rec.rows {
		c.xs[i], c.valid[i] = rec.xs[j], rec.valid[j]
	}
	c.sorted = nil
}

// histogram bins the column like stats.NewHistogram.
func (o *oracle) histogram(view, attr string, bins int) []int {
	c := o.views[view].cols[attr]
	s := c.sortedVals()
	lo, hi := s[0], s[len(s)-1]
	if lo == hi {
		hi = lo + 1
	}
	width := (hi - lo) / float64(bins)
	edges := make([]float64, bins+1)
	for i := range edges {
		edges[i] = lo + width*float64(i)
	}
	edges[bins] = hi
	counts := make([]int, bins)
	b := 0
	for _, x := range s { // ascending, so the bin only moves right
		for b < bins-1 && edges[b+1] <= x {
			b++
		}
		counts[b]++
	}
	return counts
}

// correlation is Pearson's r over pairs complete in both columns,
// mean-centred (a different arrangement from the program's raw-sums
// formula, equal to well within the four printed decimals).
func (o *oracle) correlation(view, a, b string) float64 {
	ca, cb := o.views[view].cols[a], o.views[view].cols[b]
	n, sa, sb := 0, 0.0, 0.0
	for i := range ca.xs {
		if ca.valid[i] && cb.valid[i] {
			n++
			sa += ca.xs[i]
			sb += cb.xs[i]
		}
	}
	ma, mb := sa/float64(n), sb/float64(n)
	var saa, sbb, sab float64
	for i := range ca.xs {
		if ca.valid[i] && cb.valid[i] {
			da, db := ca.xs[i]-ma, cb.xs[i]-mb
			saa += da * da
			sbb += db * db
			sab += da * db
		}
	}
	return sab / math.Sqrt(saa*sbb)
}

// stmtKind selects how a statement's answer is checked.
type stmtKind uint8

const (
	kindCompute stmtKind = iota
	kindUpdate
	kindUndo
	kindDescribe
	kindHistogram
	kindCorrelate
	kindMaterialize
)

// stmt is one statement of a stream with the answer the oracle expects.
type stmt struct {
	text  string
	class class
	kind  stmtKind
	// compute only: the function, its state family, and whether the
	// attribute is a float-shaped column.
	fn      string
	fam     family
	onFloat bool
	// prefix is the literal text the answer must start with; want is
	// the number that follows it (compute, correlate, update's row
	// count, materialize's row count).
	prefix []byte
	want   float64
	tol    float64 // 0 = exact
	// describe and histogram expectations.
	wantDesc map[string]float64
	wantHist []int
}

func relClose(got, want, tol float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= tol*math.Max(math.Abs(want), math.SmallestNonzeroFloat64)
}

// isMoment reports whether fn's answer may regroup floating-point
// additions (and so is held to a tolerance instead of equality).
func isMoment(fn string) bool {
	switch fn {
	case "sum", "mean", "variance", "sd":
		return true
	}
	return false
}

func (o *oracle) computeStmt(p pair, cl class) *stmt {
	st := &stmt{text: p.statement(), class: cl, kind: kindCompute, fn: p.fn, fam: familyOf(p.fn), onFloat: p.attr[0] == 'F',
		prefix: []byte(p.fn + "(" + p.attr + ") = "), want: o.scalar(p.view, p.fn, p.attr)}
	if isMoment(p.fn) {
		st.tol = momentTol
	}
	return st
}

// updateStmt applies the update to the shadow view and returns the
// statement with the row count the program must report. val is the
// literal as it appears in the statement text.
func (o *oracle) updateStmt(view, attr, val, predAttr string, k int) (*stmt, error) {
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return nil, err
	}
	n := o.update(view, attr, v, predAttr, float64(k))
	return &stmt{
		text:  fmt.Sprintf("update %s set %s = %s where %s = %d", view, attr, val, predAttr, k),
		class: classUpdate, kind: kindUpdate, want: float64(n),
	}, nil
}

func (o *oracle) undoStmt(view string) *stmt {
	o.undo(view)
	return &stmt{text: "undo " + view, class: classUndo, kind: kindUndo}
}

func (o *oracle) describeStmt(view, attr string) *stmt {
	c := o.views[view].cols[attr]
	want := map[string]float64{"missing": float64(len(c.xs) - len(c.sortedVals()))}
	for fn, key := range map[string]string{"count": "n", "mean": "mean", "sd": "sd", "min": "min", "q1": "q1",
		"median": "median", "q3": "q3", "max": "max", "mode": "mode", "unique": "unique"} {
		want[key] = o.scalar(view, fn, attr)
	}
	return &stmt{text: "describe " + attr + " on " + view, class: classOther, kind: kindDescribe,
		prefix: []byte(attr + ": "), wantDesc: want}
}

const histBins = 20

func (o *oracle) histogramStmt(view, attr string) *stmt {
	return &stmt{text: fmt.Sprintf("histogram %s on %s bins %d", attr, view, histBins),
		class: classOther, kind: kindHistogram, wantHist: o.histogram(view, attr, histBins)}
}

func (o *oracle) correlateStmt(view, a, b string) *stmt {
	return &stmt{text: "correlate " + a + " " + b + " on " + view, class: classOther, kind: kindCorrelate,
		prefix: []byte("correlation(" + a + ", " + b + ") = "), want: o.correlation(view, a, b), tol: corrTol}
}

func materializeStmt(v viewSpec, rawRows int) *stmt {
	return &stmt{text: v.statement(rawRows), class: classOther, kind: kindMaterialize,
		prefix: []byte("view " + v.name + " materialized: "), want: float64(v.hi - v.lo)}
}

// outcome is how one statement ended.
type outcome uint8

const (
	outcomeOK    outcome = iota
	outcomeWrong         // the program answered; the oracle disagrees
	outcomeError         // the program returned an error
	outcomeShed          // admission refused the statement
	numOutcomes
)

// check classifies one finished statement. Anything but outcomeOK
// counts against failed_share.
func check(st *stmt, out []byte, err error) outcome {
	if err != nil {
		if errors.Is(err, core.ErrShed) {
			return outcomeShed
		}
		return outcomeError
	}
	if answerOK(st, out) {
		return outcomeOK
	}
	return outcomeWrong
}

// leadingNumber parses the number at the start of b, up to the first
// space or newline.
func leadingNumber(b []byte) (float64, bool) {
	end := bytes.IndexAny(b, " \n")
	if end < 0 {
		end = len(b)
	}
	v, err := strconv.ParseFloat(string(b[:end]), 64)
	return v, err == nil
}

func answerOK(st *stmt, out []byte) bool {
	switch st.kind {
	case kindUndo:
		return string(out) == "undone\n"
	case kindUpdate:
		got, ok := leadingNumber(out)
		return ok && got == st.want && bytes.HasSuffix(out, []byte(" rows updated\n"))
	case kindCompute, kindCorrelate, kindMaterialize:
		if !bytes.HasPrefix(out, st.prefix) {
			return false
		}
		got, ok := leadingNumber(out[len(st.prefix):])
		if !ok {
			return false
		}
		if st.kind == kindCorrelate {
			return math.Abs(got-st.want) <= st.tol
		}
		return relClose(got, st.want, st.tol)
	case kindDescribe:
		if !bytes.HasPrefix(out, st.prefix) {
			return false
		}
		fields := strings.Fields(string(out[len(st.prefix):]))
		if len(fields) != len(st.wantDesc) {
			return false
		}
		for _, f := range fields {
			key, val, ok := strings.Cut(f, "=")
			want, known := st.wantDesc[key]
			got, err := strconv.ParseFloat(val, 64)
			if !ok || !known || err != nil {
				return false
			}
			tol := describeTol
			if key == "n" || key == "missing" || key == "unique" {
				tol = 0
			}
			if !relClose(got, want, tol) {
				return false
			}
		}
		return true
	case kindHistogram:
		lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
		if len(lines) != len(st.wantHist) {
			return false
		}
		for i, line := range lines {
			// "[lo, hi) count bar": the count follows the closing paren.
			_, rest, ok := strings.Cut(line, ")")
			f := strings.Fields(rest)
			if !ok || len(f) == 0 {
				return false
			}
			if n, err := strconv.Atoi(f[0]); err != nil || n != st.wantHist[i] {
				return false
			}
		}
		return true
	}
	return false
}
