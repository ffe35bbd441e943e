// Package analysis is statdb's built-in static checker: a small,
// dependency-free framework (stdlib go/parser, go/ast and go/types only)
// that parses and type-checks the module's non-test sources and enforces
// the engine's cross-package contracts at build time.
//
// The paper's framework (Section 5) argues that the Management Database
// must guarantee consistency rules mechanically rather than trusting
// analysts to follow convention; compiled incremental-view systems
// (DBToaster, F-IVM) likewise obtain their guarantees from compile-time
// analysis of the delta programs. This package applies the same idea to
// the reproduction itself: the invariants PRs 1-4 established — cost is
// virtual ticks, corruption is a sentinel error, fan-out lives in the
// audited worker pool, every metric flows through internal/obs — are
// encoded as rules over the typed AST so a violation fails `make lint`
// instead of surfacing in review.
//
// Findings print one per line as
//
//	path/file.go:line: [rule-id] message
//
// sorted by file, line, column and rule, so output is deterministic and
// golden-testable. A site that intentionally breaks a rule carries an
// inline suppression
//
//	//lint:allow <rule-id> <reason>
//
// on the offending line or the line above it. The reason is mandatory
// (a bare allow is itself a finding) and a directive that suppresses
// nothing is reported as unused, so the allowlist cannot rot.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
	"sync"
)

// Finding is one rule violation (or directive problem) at a position.
type Finding struct {
	File string `json:"file"` // module-root-relative, forward slashes
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

// String renders the canonical single-line form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Rule, f.Msg)
}

// Reporter collects findings during a run. Rules report through it so
// position translation and ordering live in one place.
type Reporter struct {
	tree     *Tree
	findings []Finding
}

// Reportf records a finding for rule at pos.
func (r *Reporter) Reportf(rule string, pos token.Pos, format string, args ...any) {
	p := r.tree.Fset.Position(pos)
	r.findings = append(r.findings, Finding{
		File: r.tree.relPath(p.Filename),
		Line: p.Line,
		Col:  p.Column,
		Rule: rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// Run executes the rules over the tree, applies //lint:allow
// suppressions, and returns the surviving findings in deterministic
// order (file, line, column, rule, message). Rules run one goroutine
// each against their own Reporter; the merge is by rule order and the
// final sort is total, so the output is bit-identical to a serial run.
func Run(t *Tree, rules []Rule) []Finding {
	known := make(map[string]bool, len(rules))
	for _, r := range rules {
		known[r.ID()] = true
	}
	// Build the shared call graph up front so the goroutines below only
	// ever read it.
	t.Graph()
	reps := make([]*Reporter, len(rules))
	var wg sync.WaitGroup
	for i, r := range rules {
		reps[i] = &Reporter{tree: t}
		wg.Add(1)
		go func(rep *Reporter, r Rule) {
			defer wg.Done()
			r.Check(t, rep)
		}(reps[i], r)
	}
	wg.Wait()
	var raw []Finding
	for _, rep := range reps {
		raw = append(raw, rep.findings...)
	}

	directives, dirFindings := scanDirectives(t, known)
	kept := dirFindings
	for _, f := range raw {
		if suppress(directives, f) {
			continue
		}
		kept = append(kept, f)
	}
	for _, d := range directives {
		if !d.valid || d.used {
			continue
		}
		msg := fmt.Sprintf("unused //lint:allow %s: no %s finding on this or the next line", d.rule, d.rule)
		// When a different rule fired exactly where this directive
		// points, the author almost certainly wrote the wrong id — say
		// which one the site actually needs.
		if others := rulesAt(raw, d); len(others) > 0 {
			msg += fmt.Sprintf(" (the finding here is %s — did you mean //lint:allow %s?)",
				strings.Join(others, ", "), others[0])
		}
		kept = append(kept, Finding{
			File: d.file, Line: d.line, Col: d.col, Rule: directiveRule,
			Msg: msg,
		})
	}
	sortFindings(kept)
	return kept
}

// rulesAt returns the distinct rule ids of raw findings the directive's
// two-line window covers but does not name, sorted.
func rulesAt(raw []Finding, d *directive) []string {
	set := map[string]bool{}
	for _, f := range raw {
		if f.File == d.file && (f.Line == d.line || f.Line == d.line+1) && f.Rule != d.rule {
			set[f.Rule] = true
		}
	}
	out := make([]string, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}
