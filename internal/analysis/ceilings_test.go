package analysis

import (
	"path/filepath"
	"sort"
	"testing"
)

// allowCeilings is the most //lint:allow directives each rule may carry
// in the repository's non-test Go files. A new exemption raises its
// rule's ceiling in the same change, and a deleted one lowers it.
var allowCeilings = map[string]int{
	"charge-tracking":   2,
	"determinism":       1,
	"error-flow":        30,
	"goroutine-confine": 2,
	"no-panic":          11,
	"test-only":         13,
}

// TestAllowCeilings counts the repository's //lint:allow directives per
// rule (go test -v prints the counts) and fails when a rule carries more
// than its ceiling; a rule the table does not list has ceiling 0.
func TestAllowCeilings(t *testing.T) {
	tree, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, r := range DefaultRules() {
		known[r.ID()] = true
	}
	dirs, _ := scanDirectives(tree, known)
	counts := map[string]int{}
	for _, d := range dirs {
		counts[d.rule]++
	}
	rules := make([]string, 0, len(counts))
	for rule := range counts {
		rules = append(rules, rule)
	}
	sort.Strings(rules)
	for _, rule := range rules {
		t.Logf("%s %d", rule, counts[rule])
		if ceiling, ok := allowCeilings[rule]; !ok || counts[rule] > ceiling {
			t.Errorf("%d //lint:allow %s directives, ceiling %d", counts[rule], rule, ceiling)
		}
	}
}
