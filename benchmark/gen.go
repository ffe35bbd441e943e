package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"statdb/internal/dataset"
)

// The survey data set is the benchmark's only input to the program
// besides statement text. It is generated from -seed into plain slices
// first (which the oracle keeps as its shadow columns) and only then
// copied into a dataset.Dataset through the public API, so the oracle
// never reads anything back from the program.

// shape is how a measure column's values are distributed; it decides the
// encoding colstore.SuggestEncodings picks and therefore which kernels a
// first-time aggregate runs through.
type shape uint8

const (
	// shapeFloat is a high-cardinality float64 (three decimals, ~1 % null):
	// Plain encoding, expensive order statistics.
	shapeFloat shape = iota
	// shapeCode is an unsorted int in 0..99 (~1 % null): Plain encoding,
	// cheap order statistics. Code columns double as update predicates:
	// "where C0 = k" selects about 1 % of the rows.
	shapeCode
	// shapeRun is an int in 0..49 emitted in ascending runs of at least
	// rows/100 rows: SuggestEncodings picks RLE and view.runSource routes
	// whole-column folds to the run kernels.
	shapeRun
)

// fns are the twelve built-in aggregates of the program's help text.
var fns = []string{"count", "sum", "mean", "variance", "sd", "min", "max", "median", "q1", "q3", "mode", "unique"}

// family is the maintenance-state family of an aggregate: what a first
// computation has to build and how an update is absorbed.
type family uint8

const (
	famMoment family = iota // incremental maintainers (incr)
	famOrder                // quantile windows (medwin)
	famFreq                 // invalidate-and-refill (mode, unique)
)

func familyOf(fn string) family {
	switch fn {
	case "median", "q1", "q3":
		return famOrder
	case "mode", "unique":
		return famFreq
	}
	return famMoment
}

// measure is one summarizable column in generator form, in view (ID
// ascending) order.
type measure struct {
	name  string
	shape shape
	xs    []float64
	valid []bool
}

// survey is one generated raw file: rawRows records with IDs 0..rawRows-1.
type survey struct {
	rawRows  int
	sex      []string
	region   []int64
	measures []measure
}

// measureName names the j-th measure column: shapes cycle float, code,
// run, so F0 C0 R0 F1 C1 R1 ...
func measureName(j int) string {
	return fmt.Sprintf("%c%d", "FCR"[j%3], j/3)
}

// genSurvey generates rawRows records with k measure columns from seed.
func genSurvey(seed int64, rawRows, k int) *survey {
	rng := rand.New(rand.NewSource(seed))
	s := &survey{rawRows: rawRows, sex: make([]string, rawRows), region: make([]int64, rawRows)}
	for i := 0; i < rawRows; i++ {
		s.sex[i] = [...]string{"M", "F"}[rng.Intn(2)]
		s.region[i] = int64(1 + rng.Intn(9))
	}
	for j := 0; j < k; j++ {
		m := measure{name: measureName(j), shape: shape(j % 3), xs: make([]float64, rawRows), valid: make([]bool, rawRows)}
		switch m.shape {
		case shapeFloat:
			mu, sigma := 40+20*rng.Float64(), 10+10*rng.Float64()
			for i := range m.xs {
				if rng.Intn(100) == 0 {
					continue // null
				}
				m.xs[i] = math.Round((mu+sigma*rng.NormFloat64())*1000) / 1000
				m.valid[i] = true
			}
		case shapeCode:
			for i := range m.xs {
				if rng.Intn(100) == 0 {
					continue
				}
				m.xs[i] = float64(rng.Intn(100))
				m.valid[i] = true
			}
		case shapeRun:
			fillRuns(rng, m.xs)
			for i := range m.valid {
				m.valid[i] = true
			}
		}
		s.measures = append(s.measures, m)
	}
	return s
}

// fillRuns writes 50 ascending values as runs whose lengths are random
// but never below len(xs)/100, so every run column compresses at least
// 4:1 at any scale.
func fillRuns(rng *rand.Rand, xs []float64) {
	const values = 50
	n := len(xs)
	minRun := n / (2 * values)
	if minRun < 1 {
		minRun = 1
	}
	// Distribute the slack above the minimum by random weights.
	slack := n - values*minRun
	weights := make([]float64, values)
	total := 0.0
	for i := range weights {
		weights[i] = rng.Float64()
		total += weights[i]
	}
	pos := 0
	for v := 0; v < values; v++ {
		length := minRun + int(float64(slack)*weights[v]/total)
		if v == values-1 || pos+length > n {
			length = n - pos
		}
		for i := 0; i < length; i++ {
			xs[pos+i] = float64(v)
		}
		pos += length
	}
}

// schema is the raw file's schema: three category attributes and the
// measures.
func (s *survey) schema() (*dataset.Schema, error) {
	attrs := []dataset.Attribute{
		{Name: "ID", Kind: dataset.KindInt, Category: true},
		{Name: "SEX", Kind: dataset.KindString, Category: true},
		{Name: "REGION", Kind: dataset.KindInt, Category: true},
	}
	for _, m := range s.measures {
		kind := dataset.KindInt
		if m.shape == shapeFloat {
			kind = dataset.KindFloat
		}
		attrs = append(attrs, dataset.Attribute{Name: m.name, Kind: kind, Summarizable: true})
	}
	return dataset.NewSchema(attrs...)
}

// dataset copies the survey into the program's input form. Records are
// written in descending ID order, so the materialize statement's
// "sort ID" has work to do and the run columns only become runs once the
// view is built.
func (s *survey) dataset() (*dataset.Dataset, error) {
	sch, err := s.schema()
	if err != nil {
		return nil, err
	}
	ds := dataset.New(sch)
	row := make(dataset.Row, sch.Len())
	for i := s.rawRows - 1; i >= 0; i-- {
		row[0] = dataset.Int(int64(i))
		row[1] = dataset.String(s.sex[i])
		row[2] = dataset.Int(s.region[i])
		for j, m := range s.measures {
			switch {
			case !m.valid[i]:
				row[3+j] = dataset.Null
			case m.shape == shapeFloat:
				row[3+j] = dataset.Float(m.xs[i])
			default:
				row[3+j] = dataset.Int(int64(m.xs[i]))
			}
		}
		if err := ds.Append(row); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// viewSpec is one view the benchmark materializes by statement: the ID
// interval it keeps and the measures it projects.
type viewSpec struct {
	name     string
	lo, hi   int // keeps lo <= ID < hi
	measures []string
}

// statement renders the materialize statement. A view anchored at ID 0
// is written as an upper bound, any other as a lower bound, so two views
// over one raw file never share a derivation fingerprint.
func (v viewSpec) statement(rawRows int) string {
	pred := fmt.Sprintf("ID >= %d", v.lo)
	if v.lo == 0 {
		pred = fmt.Sprintf("ID < %d", v.hi)
	} else if v.hi != rawRows {
		pred += fmt.Sprintf(" and ID < %d", v.hi)
	}
	return fmt.Sprintf("materialize %s from survey where %s project ID,SEX,REGION,%s sort ID",
		v.name, pred, strings.Join(v.measures, ","))
}

// class is a statement's class, defined by the input stream alone.
type class uint8

const (
	classFirst  class = iota // this (fn, attr) not yet asked on this view
	classRepeat              // asked before
	classUpdate
	classUndo
	classOther // describe, histogram, correlate, materialize
)

var classNames = [...]string{"first", "repeat", "update", "undo", "other"}

// pair is one (function, attribute) request against a view.
type pair struct {
	view, fn, attr string
}

func (p pair) statement() string {
	return "compute " + p.fn + " " + p.attr + " on " + p.view
}

// allPairs lists every (fn, attr) over the attrs in a fixed order.
func allPairs(view string, attrs []string) []pair {
	out := make([]pair, 0, len(attrs)*len(fns))
	for _, a := range attrs {
		for _, fn := range fns {
			out = append(out, pair{view: view, fn: fn, attr: a})
		}
	}
	return out
}
