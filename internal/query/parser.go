package query

import (
	"fmt"
	"strconv"
	"strings"

	"statdb/internal/dataset"
	"statdb/internal/relalg"
)

// Command is a parsed statement: a value of one of the command types
// below or in analysis.go, as its verb's parse function returns it.
type Command any

// Files lists the raw archive.
type Files struct{}

// Views lists registered views.
type Views struct{}

// Help prints usage.
type Help struct{}

// Materialize builds a concrete view.
type Materialize struct {
	View    string
	Source  string
	Where   relalg.Predicate // nil when absent
	Project []string         // nil when absent
	Decode  []string
	SortBy  []relalg.SortKey
}

// Compute evaluates a function over a view attribute.
type Compute struct {
	Fn   string
	Attr string
	View string
}

// SummaryDump prints a view's Figure 4 table.
type SummaryDump struct{ View string }

// Update modifies matching rows.
type Update struct {
	View  string
	Attr  string
	Value dataset.Value // Null for `= null`
	Where relalg.Predicate
}

// Undo reverses the last update.
type Undo struct{ View string }

// HistoryCmd lists a view's update history.
type HistoryCmd struct{ View string }

// Publish shares a view.
type Publish struct{ View string }

// Show prints rows of a view.
type Show struct {
	View  string
	Limit int
}

// ShardsCmd prints per-shard health, placement, and fault/retry
// ledgers for a view's sharded scatter-gather backing.
type ShardsCmd struct{ View string }

// StatsCmd dumps the system-wide metrics snapshot in the stable text
// format (counters, gauges, histograms sorted by name).
type StatsCmd struct{}

// ExplainCmd runs the wrapped statement and prints its EXPLAIN-style
// profile: the span tree with each node's cost-model charge.
type ExplainCmd struct {
	Inner Command
	verb  *verb // the row that parsed Inner
}

// ProfileCmd runs the wrapped statement and prints its folded profile —
// per-site calls/self/total/pages/rows ranked by self ticks — the
// profiling sibling of explain (tree-shaped account vs. site-ranked
// account of the same span tree).
type ProfileCmd struct {
	Inner Command
	verb  *verb // the row that parsed Inner
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// keyword consumes a word token case-insensitively.
func (p *parser) keyword(words ...string) (string, bool) {
	t := p.peek()
	if t.kind != tokWord {
		return "", false
	}
	for _, w := range words {
		if strings.EqualFold(t.text, w) {
			p.next()
			return strings.ToLower(w), true
		}
	}
	return "", false
}

func (p *parser) expectWord(what string) (string, error) {
	t := p.next()
	if t.kind != tokWord {
		return "", fmt.Errorf("query: expected %s, got %s", what, t)
	}
	return t.text, nil
}

func (p *parser) expectKeyword(word string) error {
	if _, ok := p.keyword(word); !ok {
		return fmt.Errorf("query: expected %q, got %s", word, p.peek())
	}
	return nil
}

func (p *parser) expectEOF() error {
	if t := p.peek(); t.kind != tokEOF {
		return fmt.Errorf("query: unexpected trailing %s", t)
	}
	return nil
}

// Parse parses one statement.
func Parse(input string) (Command, error) {
	_, cmd, err := parseStatement(input)
	return cmd, err
}

// parseStatement parses one statement and returns its verb's row.
func parseStatement(input string) (*verb, Command, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, nil, err
	}
	p := &parser{toks: toks}
	v, cmd, err := p.parseCommand()
	if err != nil {
		return nil, nil, err
	}
	if err := p.expectEOF(); err != nil {
		return nil, nil, err
	}
	return v, cmd, nil
}

// parseCommand parses one statement by its verb's row, and returns
// the row with the command. Factored out of Parse so `explain`/`profile`
// can recursively parse their wrapped statement.
func (p *parser) parseCommand() (*verb, Command, error) {
	if t := p.peek(); t.kind == tokWord {
		for i := range verbs {
			if v := &verbs[i]; strings.EqualFold(t.text, v.keyword) {
				p.next()
				cmd, err := v.parse(p)
				if err != nil {
					return nil, nil, err
				}
				return v, cmd, nil
			}
		}
	}
	return nil, nil, fmt.Errorf("query: unknown command %s (try 'help')", p.peek())
}

// materialize V from FILE [where P] [project a,b] [decode a] [sort a [desc]]
func (p *parser) parseMaterialize() (Command, error) {
	name, err := p.expectWord("view name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	src, err := p.expectWord("source file")
	if err != nil {
		return nil, err
	}
	m := Materialize{View: name, Source: src}
	for {
		kw, ok := p.keyword("where", "project", "decode", "sort")
		if !ok {
			break
		}
		switch kw {
		case "where":
			pred, err := p.parsePredicate()
			if err != nil {
				return nil, err
			}
			m.Where = pred
		case "project":
			cols, err := p.parseNameList()
			if err != nil {
				return nil, err
			}
			m.Project = cols
		case "decode":
			a, err := p.expectWord("attribute")
			if err != nil {
				return nil, err
			}
			m.Decode = append(m.Decode, a)
		case "sort":
			a, err := p.expectWord("attribute")
			if err != nil {
				return nil, err
			}
			key := relalg.SortKey{Attr: a}
			if _, ok := p.keyword("desc"); ok {
				key.Desc = true
			}
			m.SortBy = append(m.SortBy, key)
		}
	}
	return m, nil
}

// compute FN ATTR on VIEW
func (p *parser) parseCompute() (Command, error) {
	fn, err := p.expectWord("function name")
	if err != nil {
		return nil, err
	}
	attr, v, err := p.attrOnView()
	if err != nil {
		return nil, err
	}
	return Compute{Fn: strings.ToLower(fn), Attr: attr, View: v}, nil
}

// attrOnView reads "ATTR on VIEW".
func (p *parser) attrOnView() (attr, view string, err error) {
	if attr, err = p.expectWord("attribute"); err != nil {
		return "", "", err
	}
	if err = p.expectKeyword("on"); err != nil {
		return "", "", err
	}
	view, err = p.expectWord("view name")
	return attr, view, err
}

// update VIEW set ATTR = VALUE where P
func (p *parser) parseUpdate() (Command, error) {
	v, err := p.expectWord("view name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("set"); err != nil {
		return nil, err
	}
	attr, err := p.expectWord("attribute")
	if err != nil {
		return nil, err
	}
	if t := p.next(); t.kind != tokSymbol || t.text != "=" {
		return nil, fmt.Errorf("query: expected '=', got %s", t)
	}
	val, err := p.parseValue()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("where"); err != nil {
		return nil, err
	}
	pred, err := p.parsePredicate()
	if err != nil {
		return nil, err
	}
	return Update{View: v, Attr: attr, Value: val, Where: pred}, nil
}

// show VIEW [limit N]
func (p *parser) parseShow() (Command, error) {
	v, err := p.expectWord("view name")
	if err != nil {
		return nil, err
	}
	s := Show{View: v, Limit: 10}
	if _, ok := p.keyword("limit"); ok {
		t := p.next()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("query: expected limit count, got %s", t)
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("query: bad limit %q", t.text)
		}
		s.Limit = n
	}
	return s, nil
}

// parsePredicate parses `term (and term)*` where term is
// `ATTR op VALUE` or `ATTR is [not] null`.
func (p *parser) parsePredicate() (relalg.Predicate, error) {
	var terms relalg.And
	for {
		term, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		terms = append(terms, term)
		if _, ok := p.keyword("and"); !ok {
			break
		}
	}
	if len(terms) == 1 {
		return terms[0], nil
	}
	return terms, nil
}

func (p *parser) parseTerm() (relalg.Predicate, error) {
	attr, err := p.expectWord("attribute")
	if err != nil {
		return nil, err
	}
	if _, ok := p.keyword("is"); ok {
		if _, not := p.keyword("not"); not {
			if err := p.expectKeyword("null"); err != nil {
				return nil, err
			}
			return relalg.NotNull{Attr: attr}, nil
		}
		if err := p.expectKeyword("null"); err != nil {
			return nil, err
		}
		return relalg.IsNull{Attr: attr}, nil
	}
	t := p.next()
	if t.kind != tokSymbol {
		return nil, fmt.Errorf("query: expected comparison operator, got %s", t)
	}
	var op relalg.Op
	switch t.text {
	case "=":
		op = relalg.Eq
	case "!=":
		op = relalg.Ne
	case "<":
		op = relalg.Lt
	case "<=":
		op = relalg.Le
	case ">":
		op = relalg.Gt
	case ">=":
		op = relalg.Ge
	default:
		return nil, fmt.Errorf("query: bad operator %q", t.text)
	}
	val, err := p.parseValue()
	if err != nil {
		return nil, err
	}
	return relalg.Cmp{Attr: attr, Op: op, Val: val}, nil
}

// parseValue parses a literal: number, quoted string, or null.
func (p *parser) parseValue() (dataset.Value, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		if strings.ContainsRune(t.text, '.') {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return dataset.Null, fmt.Errorf("query: bad number %q", t.text)
			}
			return dataset.Float(f), nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return dataset.Null, fmt.Errorf("query: bad number %q", t.text)
		}
		return dataset.Int(n), nil
	case tokString:
		return dataset.String(t.text), nil
	case tokWord:
		if strings.EqualFold(t.text, "null") {
			return dataset.Null, nil
		}
		// Bare words act as string literals for ergonomic predicates
		// (SEX = M).
		return dataset.String(t.text), nil
	}
	return dataset.Null, fmt.Errorf("query: expected a value, got %s", t)
}

func (p *parser) parseNameList() ([]string, error) {
	var out []string
	for {
		n, err := p.expectWord("attribute")
		if err != nil {
			return nil, err
		}
		out = append(out, n)
		if t := p.peek(); t.kind == tokSymbol && t.text == "," {
			p.next()
			continue
		}
		break
	}
	return out, nil
}
