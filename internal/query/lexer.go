// Package query implements the small command language the statdb CLI
// speaks. The paper assumes view specification happens through
// "appropriate tools ... for specifying exactly what view is to be
// materialized" (Section 2.7); this language is that tool: materialize /
// compute / update / undo / history / publish commands over the DBMS.
package query

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer output.
type tokenKind uint8

const (
	tokWord tokenKind = iota // bare identifier or keyword
	tokNumber
	tokString // quoted literal
	tokSymbol // = != < <= > >= , ( )
	tokEOF
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lex splits input into tokens. Errors carry byte positions for
// diagnostics.
func lex(input string) ([]token, error) {
	// Most statements are at most eight tokens: one allocation holds them.
	out := make([]token, 0, 8)
	i := 0
	for i < len(input) {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '\'' || c == '"':
			quote := input[i]
			j := i + 1
			for j < len(input) && input[j] != quote {
				j++
			}
			if j >= len(input) {
				return nil, fmt.Errorf("query: unterminated string at position %d", i)
			}
			out = append(out, token{kind: tokString, text: input[i+1 : j], pos: i})
			i = j + 1
		case strings.ContainsRune("=<>!", c):
			j := i + 1
			if j < len(input) && input[j] == '=' {
				j++
			}
			sym := input[i:j]
			switch sym {
			case "=", "!=", "<", "<=", ">", ">=":
			default:
				return nil, fmt.Errorf("query: bad operator %q at position %d", sym, i)
			}
			out = append(out, token{kind: tokSymbol, text: sym, pos: i})
			i = j
		case c == ',' || c == '(' || c == ')' || c == '*':
			out = append(out, token{kind: tokSymbol, text: string(c), pos: i})
			i++
		case c == '-' || c == '.' || unicode.IsDigit(c):
			j := i
			if input[j] == '-' {
				j++
			}
			digits := false
			for j < len(input) && (unicode.IsDigit(rune(input[j])) || input[j] == '.') {
				digits = true
				j++
			}
			if !digits {
				return nil, fmt.Errorf("query: lone %q at position %d", c, i)
			}
			out = append(out, token{kind: tokNumber, text: input[i:j], pos: i})
			i = j
		case unicode.IsLetter(c) || c == '_':
			j := i
			for j < len(input) && (unicode.IsLetter(rune(input[j])) || unicode.IsDigit(rune(input[j])) || input[j] == '_' || input[j] == '-') {
				j++
			}
			out = append(out, token{kind: tokWord, text: input[i:j], pos: i})
			i = j
		default:
			return nil, fmt.Errorf("query: unexpected character %q at position %d", c, i)
		}
	}
	out = append(out, token{kind: tokEOF, pos: len(input)})
	return out, nil
}
