package query

import (
	"fmt"
	"strconv"
)

// Analysis commands: histogram / crosstab / correlate / regress /
// sample / rollback / advice. Parsed here, executed in exec_analysis.go.

// HistogramCmd bins an attribute.
type HistogramCmd struct {
	Attr string
	View string
	Bins int
}

// CrosstabCmd cross-tabulates two attributes and runs the chi-square
// independence test.
type CrosstabCmd struct {
	RowAttr, ColAttr string
	View             string
}

// CorrelateCmd computes Pearson (default) or Spearman correlation.
type CorrelateCmd struct {
	X, Y string
	View string
	Rank bool
}

// RegressCmd fits Y on one or more predictors by OLS.
type RegressCmd struct {
	Y    string
	Xs   []string
	View string
}

// SampleCmd draws k random rows of a view into a new view.
type SampleCmd struct {
	K    int
	View string
	As   string
	Seed int64
}

// RollbackCmd undoes updates back to a history sequence number.
type RollbackCmd struct {
	View string
	Seq  int64
}

// AdviceCmd prints the access-pattern layout recommendation.
type AdviceCmd struct{ View string }

// ImportCmd loads a CSV file into the raw archive (schema inferred).
type ImportCmd struct {
	Path string
	As   string
}

// ExportCmd writes a view as CSV.
type ExportCmd struct {
	View string
	Path string
}

// SaveCmd persists the whole DBMS state to a directory.
type SaveCmd struct{ Path string }

// DescribeCmd prints the standing summary information for an attribute.
type DescribeCmd struct {
	Attr string
	View string
}

// FrequenciesCmd tabulates a string attribute's values.
type FrequenciesCmd struct {
	Attr string
	View string
}

// TTestCmd compares an attribute's mean between the two groups of a
// binary grouping attribute (Welch's t-test).
type TTestCmd struct {
	Attr  string
	Group string
	View  string
}

func (ImportCmd) cmd()      {}
func (DescribeCmd) cmd()    {}
func (FrequenciesCmd) cmd() {}
func (TTestCmd) cmd()       {}
func (ExportCmd) cmd()      {}
func (SaveCmd) cmd()        {}

func (HistogramCmd) cmd() {}
func (CrosstabCmd) cmd()  {}
func (CorrelateCmd) cmd() {}
func (RegressCmd) cmd()   {}
func (SampleCmd) cmd()    {}
func (RollbackCmd) cmd()  {}
func (AdviceCmd) cmd()    {}

// maxHistogramBins bounds what one statement may ask the histogram to
// allocate and print: the bin count arrives from outside the program
// (the REPL, POST /query), and every bin is an edge, a count and a line.
const maxHistogramBins = 10000

// histogram ATTR on VIEW [bins N]
func (p *parser) parseHistogram() (Command, error) {
	attr, err := p.expectWord("attribute")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("on"); err != nil {
		return nil, err
	}
	v, err := p.expectWord("view name")
	if err != nil {
		return nil, err
	}
	c := HistogramCmd{Attr: attr, View: v, Bins: 10}
	if _, ok := p.keyword("bins"); ok {
		t := p.next()
		n, err := strconv.Atoi(t.text)
		if t.kind != tokNumber || err != nil || n < 1 || n > maxHistogramBins {
			return nil, fmt.Errorf("query: bad bin count %s (1..%d)", t, maxHistogramBins)
		}
		c.Bins = n
	}
	return c, nil
}

// crosstab A B on VIEW
func (p *parser) parseCrosstab() (Command, error) {
	a, err := p.expectWord("row attribute")
	if err != nil {
		return nil, err
	}
	b, err := p.expectWord("column attribute")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("on"); err != nil {
		return nil, err
	}
	v, err := p.expectWord("view name")
	if err != nil {
		return nil, err
	}
	return CrosstabCmd{RowAttr: a, ColAttr: b, View: v}, nil
}

// correlate X Y on VIEW [rank]
func (p *parser) parseCorrelate() (Command, error) {
	x, err := p.expectWord("attribute")
	if err != nil {
		return nil, err
	}
	y, err := p.expectWord("attribute")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("on"); err != nil {
		return nil, err
	}
	v, err := p.expectWord("view name")
	if err != nil {
		return nil, err
	}
	c := CorrelateCmd{X: x, Y: y, View: v}
	if _, ok := p.keyword("rank"); ok {
		c.Rank = true
	}
	return c, nil
}

// regress Y on X1[,X2...] over VIEW
func (p *parser) parseRegress() (Command, error) {
	y, err := p.expectWord("response attribute")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("on"); err != nil {
		return nil, err
	}
	xs, err := p.parseNameList()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("over"); err != nil {
		return nil, err
	}
	v, err := p.expectWord("view name")
	if err != nil {
		return nil, err
	}
	return RegressCmd{Y: y, Xs: xs, View: v}, nil
}

// sample N from VIEW as NAME [seed S]
func (p *parser) parseSample() (Command, error) {
	t := p.next()
	k, err := strconv.Atoi(t.text)
	if t.kind != tokNumber || err != nil || k < 1 {
		return nil, fmt.Errorf("query: bad sample size %s", t)
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	v, err := p.expectWord("view name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("as"); err != nil {
		return nil, err
	}
	name, err := p.expectWord("new view name")
	if err != nil {
		return nil, err
	}
	c := SampleCmd{K: k, View: v, As: name, Seed: 1}
	if _, ok := p.keyword("seed"); ok {
		t := p.next()
		s, err := strconv.ParseInt(t.text, 10, 64)
		if t.kind != tokNumber || err != nil {
			return nil, fmt.Errorf("query: bad seed %s", t)
		}
		c.Seed = s
	}
	return c, nil
}

// import 'PATH' as NAME
func (p *parser) parseImport() (Command, error) {
	t := p.next()
	if t.kind != tokString {
		return nil, fmt.Errorf("query: import path must be quoted, got %s", t)
	}
	if err := p.expectKeyword("as"); err != nil {
		return nil, err
	}
	name, err := p.expectWord("raw file name")
	if err != nil {
		return nil, err
	}
	return ImportCmd{Path: t.text, As: name}, nil
}

// export VIEW to 'PATH'
func (p *parser) parseExport() (Command, error) {
	v, err := p.expectWord("view name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("to"); err != nil {
		return nil, err
	}
	t := p.next()
	if t.kind != tokString {
		return nil, fmt.Errorf("query: export path must be quoted, got %s", t)
	}
	return ExportCmd{View: v, Path: t.text}, nil
}

// save to 'DIR'
func (p *parser) parseSave() (Command, error) {
	if err := p.expectKeyword("to"); err != nil {
		return nil, err
	}
	t := p.next()
	if t.kind != tokString {
		return nil, fmt.Errorf("query: save path must be quoted, got %s", t)
	}
	return SaveCmd{Path: t.text}, nil
}

// ttest ATTR by GROUP on VIEW
func (p *parser) parseTTest() (Command, error) {
	attr, err := p.expectWord("attribute")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("by"); err != nil {
		return nil, err
	}
	group, err := p.expectWord("grouping attribute")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("on"); err != nil {
		return nil, err
	}
	v, err := p.expectWord("view name")
	if err != nil {
		return nil, err
	}
	return TTestCmd{Attr: attr, Group: group, View: v}, nil
}

// rollback VIEW to SEQ
func (p *parser) parseRollback() (Command, error) {
	v, err := p.expectWord("view name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("to"); err != nil {
		return nil, err
	}
	t := p.next()
	seq, err := strconv.ParseInt(t.text, 10, 64)
	if t.kind != tokNumber || err != nil || seq < 0 {
		return nil, fmt.Errorf("query: bad sequence number %s", t)
	}
	return RollbackCmd{View: v, Seq: seq}, nil
}
