package query

import (
	"bytes"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"statdb/internal/core"
)

// TestEveryKeywordHasOneHelpLine: help lists each keyword Parse accepts
// exactly once, and lists nothing else.
func TestEveryKeywordHasOneHelpLine(t *testing.T) {
	var out bytes.Buffer
	if err := NewExecutor(core.New(), "analyst", &out).Run("help"); err != nil {
		t.Fatal(err)
	}
	lines := map[string]int{}
	for _, line := range strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")[1:] {
		lines[strings.Fields(line)[0]]++
	}
	for _, v := range verbs {
		// "files" completes explain and profile; any other verb rejects it
		// as a bad argument, not as an unknown command.
		if _, err := Parse(v.keyword + " files"); err != nil && strings.Contains(err.Error(), "unknown command") {
			t.Errorf("Parse does not accept the keyword %q: %v", v.keyword, err)
		}
		if lines[v.keyword] != 1 {
			t.Errorf("help lists %q on %d lines, want 1", v.keyword, lines[v.keyword])
		}
	}
	if len(lines) != len(verbs) {
		t.Errorf("help lists %d keywords, Parse accepts %d:\n%s", len(lines), len(verbs), out.String())
	}
	if _, err := Parse("frobnicate"); err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Errorf("Parse(frobnicate) = %v, want unknown command", err)
	}
}

// TestVerbExecsAreChargeTrackingRoots: statdb-vet's charge-tracking rule
// roots every function of this package whose name starts with exec, and
// its call graph neither resolves func values nor has literals as nodes.
// So each row's exec (or run) function must be a named exec* function or
// method; a literal in the table would silently drop the verb's reads
// from the check.
func TestVerbExecsAreChargeTrackingRoots(t *testing.T) {
	named := regexp.MustCompile(`\.exec[A-Za-z]*$`)
	for _, v := range verbs {
		var fn any = v.exec
		if v.run != nil {
			fn = v.run
		}
		if (v.exec == nil) == (v.run == nil) {
			t.Errorf("%s: want exactly one of exec and run", v.keyword)
			continue
		}
		name := runtime.FuncForPC(reflect.ValueOf(fn).Pointer()).Name()
		if !named.MatchString(name) {
			t.Errorf("%s runs %s, want a named exec* function", v.keyword, name)
		}
	}
}
