package query

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// helpExamples returns the statement forms helpText lists — the left
// column of each line — as seed corpus for the front-door fuzz targets.
func helpExamples() []string {
	var out []string
	for _, line := range strings.Split(helpText, "\n")[1:] {
		if form, _, _ := strings.Cut(strings.TrimSpace(line), "  "); form != "" {
			out = append(out, form)
		}
	}
	return out
}

// canonical re-renders a lexed statement one token at a time, single
// spaced: a second spelling of the same token stream.
func canonical(toks []token) string {
	var parts []string
	for _, t := range toks {
		switch t.kind {
		case tokEOF:
		case tokString:
			// The text cannot contain the quote that delimited it.
			q := "'"
			if strings.Contains(t.text, q) {
				q = `"`
			}
			parts = append(parts, q+t.text+q)
		default:
			parts = append(parts, t.text)
		}
	}
	return strings.Join(parts, " ")
}

// FuzzParse: the parser never panics, and a statement it accepts means
// the same thing however its tokens are spaced — the canonical
// re-rendering parses to an equal command.
func FuzzParse(f *testing.F) {
	for _, s := range helpExamples() {
		f.Add(s)
	}
	for _, s := range []string{
		"materialize v from f where A = 1 and (B != 'x' or not C is null) project A,B sort A desc",
		"update v set A = null where B >= -2.5",
		`explain profile compute mean SALARY on "my view"`,
		"histogram A on v bins 10000",
		"sample 10 from v as w seed 7",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		cmd, err := Parse(input)
		if err != nil {
			return
		}
		toks, err := lex(input)
		if err != nil {
			t.Fatalf("Parse accepted %q but lex rejects it: %v", input, err)
		}
		again, err := Parse(canonical(toks))
		if err != nil {
			t.Fatalf("%q parses, its canonical form %q does not: %v", input, canonical(toks), err)
		}
		if !reflect.DeepEqual(cmd, again) {
			t.Fatalf("%q parsed to %#v, its canonical form %q to %#v", input, cmd, canonical(toks), again)
		}
	})
}

// Property: the lexer and parser never panic on arbitrary input — they
// either produce a command or an error. A REPL must survive anything the
// analyst types.
func TestParseNeverPanicsProperty(t *testing.T) {
	f := func(input string) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on %q: %v", input, r)
				ok = false
			}
		}()
		_, _ = Parse(input)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: every successfully parsed command re-parses identically when
// the input is well-formed keyword commands assembled from fragments.
func TestParseFragmentsProperty(t *testing.T) {
	fragments := []string{
		"materialize", "v", "from", "f", "where", "A", "=", "1", "and",
		"project", ",", "B", "compute", "mean", "on", "update", "set",
		"null", "is", "not", "'str'", "3.5", "-2", "sort", "desc",
		"histogram", "bins", "sample", "as", "seed", "rollback", "to",
	}
	f := func(picks []uint8) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		var input string
		for _, p := range picks {
			input += fragments[int(p)%len(fragments)] + " "
		}
		_, _ = Parse(input)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
