package query

import (
	"fmt"
	"strings"

	"statdb/internal/summary"
)

// verb declares one statement keyword. The verbs table is the only list
// of keywords: the parser finds a statement's row by its first word,
// help is rendered from the rows in table order, and the executor runs
// the row the parser found and keeps that row's instruments.
type verb struct {
	form  string // help's left column; its first word is the keyword
	doc   string // help's right column
	parse func(*parser) (Command, error)
	// exec runs the statement inside its profiled "query" span. A row
	// that must not be profiled itself sets run instead, which is handed
	// the statement's text: stats reads the registry a span would move,
	// and explain/profile profile the statement they wrap. Both are
	// named exec* methods, never literals: statdb-vet's charge-tracking
	// rule roots every exec* function in this package, and a literal is
	// not a node of its call graph.
	exec func(*Executor, Command) error
	run  func(*Executor, Command, string) error

	keyword string // set by init from form
	id      int    // position in verbs; indexes an Executor's perVerb
}

// verbs is filled by init: explain's and profile's parse functions
// parse a nested statement, and help renders the table, so a
// package-level initializer would refer to itself.
var verbs []verb

func init() {
	verbs = []verb{
		{form: "files", doc: "list raw archive files",
			parse: parseNone[Files], exec: (*Executor).execFiles},
		{form: "views", doc: "list views",
			parse: parseNone[Views], exec: (*Executor).execViews},
		{form: "materialize V from FILE [where P] [project A,B] [decode A] [sort A [desc]]",
			parse: (*parser).parseMaterialize, exec: (*Executor).execMaterialize},
		{form: "compute FN ATTR on V", doc: "fn: " + strings.Join(summary.Functions(), " "),
			parse: (*parser).parseCompute, exec: (*Executor).execCompute},
		{form: "summary V", doc: "dump V's summary database (Figure 4)",
			parse: parseV[SummaryDump], exec: (*Executor).execSummary},
		{form: "describe A on V", doc: "standing summary info (Section 3.2)",
			parse: parseAOnV[DescribeCmd], exec: (*Executor).execDescribe},
		{form: "frequencies A on V", doc: "value counts for a string attribute",
			parse: parseAOnV[FrequenciesCmd], exec: (*Executor).execFrequencies},
		{form: "update V set ATTR = VALUE where P", doc: "VALUE may be null",
			parse: (*parser).parseUpdate, exec: (*Executor).execUpdate},
		{form: "undo V", doc: "undo V's most recent update",
			parse: parseV[Undo], exec: (*Executor).execUndo},
		{form: "history V", doc: "show V's update history",
			parse: parseV[HistoryCmd], exec: (*Executor).execHistory},
		{form: "publish V", doc: "share V with other analysts",
			parse: parseV[Publish], exec: (*Executor).execPublish},
		{form: "show V [limit N]", doc: "print rows",
			parse: (*parser).parseShow, exec: (*Executor).execShow},
		{form: "histogram A on V [bins N]", doc: "binned frequencies with bars",
			parse: (*parser).parseHistogram, exec: (*Executor).execHistogram},
		{form: "crosstab A B on V", doc: "contingency table + chi-square",
			parse: (*parser).parseCrosstab, exec: (*Executor).execCrosstab},
		{form: "correlate A B on V [rank]", doc: "Pearson (or Spearman) correlation",
			parse: (*parser).parseCorrelate, exec: (*Executor).execCorrelate},
		{form: "ttest A by G on V", doc: "Welch two-sample t-test between G's two groups",
			parse: (*parser).parseTTest, exec: (*Executor).execTTest},
		{form: "regress Y on X1,X2 over V", doc: "OLS fit",
			parse: (*parser).parseRegress, exec: (*Executor).execRegress},
		{form: "sample N from V as NEW [seed S]", doc: "random-sample view",
			parse: (*parser).parseSample, exec: (*Executor).execSample},
		{form: "rollback V to SEQ", doc: "undo updates after history #SEQ",
			parse: (*parser).parseRollback, exec: (*Executor).execRollback},
		{form: "advice V", doc: "storage-layout recommendation",
			parse: parseV[AdviceCmd], exec: (*Executor).execAdvice},
		{form: "import 'file.csv' as NAME", doc: "CSV -> raw archive (schema inferred)",
			parse: (*parser).parseImport, exec: (*Executor).execImport},
		{form: "export V to 'file.csv'", doc: "view -> CSV",
			parse: (*parser).parseExport, exec: (*Executor).execExport},
		{form: "save to 'DIR'", doc: "persist the whole database to directory DIR",
			parse: (*parser).parseSave, exec: (*Executor).execSave},
		{form: "shards V", doc: "per-shard health for V's sharded backing",
			parse: parseV[ShardsCmd], exec: (*Executor).execShards},
		{form: "stats", doc: "dump system metrics (counters, gauges, histograms)",
			parse: parseNone[StatsCmd], run: (*Executor).execStats},
		{form: "explain CMD", doc: "run CMD and print its cost-charged span tree",
			parse: parseWrapped[ExplainCmd], run: (*Executor).execExplain},
		{form: "profile CMD", doc: "run CMD and print its folded profile (top sites by self ticks)",
			parse: parseWrapped[ProfileCmd], run: (*Executor).execProfile},
		{form: "help",
			parse: parseNone[Help], exec: (*Executor).execHelp},
	}
	for i := range verbs {
		verbs[i].keyword, _, _ = strings.Cut(verbs[i].form, " ")
		verbs[i].id = i
	}
}

// parseNone reads a statement that is its keyword alone.
func parseNone[C any](*parser) (Command, error) {
	var c C
	return c, nil
}

// parseV reads the "V" shape: the keyword and a view name.
func parseV[C ~struct{ View string }](p *parser) (Command, error) {
	v, err := p.expectWord("view name")
	return C{View: v}, err
}

// parseAOnV reads the "A on V" shape: an attribute of a view.
func parseAOnV[C ~struct{ Attr, View string }](p *parser) (Command, error) {
	attr, v, err := p.attrOnView()
	return C{Attr: attr, View: v}, err
}

// parseWrapped reads the statement explain or profile wraps: one that
// runs inside a profiled span of its own.
func parseWrapped[C ~struct {
	Inner Command
	verb  *verb
}](p *parser) (Command, error) {
	v, inner, err := p.parseCommand()
	if err == nil && v.exec == nil {
		err = fmt.Errorf("query: %s cannot be explained or profiled", v.keyword)
	}
	return C{Inner: inner, verb: v}, err
}

// execHelp lists every verb's form and description in table order.
func (e *Executor) execHelp(Command) error {
	fmt.Fprintln(e.Out, "commands:")
	for _, v := range verbs {
		if v.doc == "" {
			fmt.Fprintf(e.Out, "  %s\n", v.form)
		} else {
			fmt.Fprintf(e.Out, "  %-44s%s\n", v.form, v.doc)
		}
	}
	return nil
}
