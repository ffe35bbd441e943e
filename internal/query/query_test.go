package query

import (
	"bytes"
	"strings"
	"testing"

	"statdb/internal/core"
	"statdb/internal/shard"
	"statdb/internal/workload"
)

func TestLexer(t *testing.T) {
	toks, err := lex(`materialize v1 from census where AVE_SALARY >= 30000 and SEX = 'M'`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokenKind{tokWord, tokWord, tokWord, tokWord, tokWord, tokWord, tokSymbol, tokNumber, tokWord, tokWord, tokSymbol, tokString, tokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("tokens = %d, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Errorf("token %d = %v kind %d, want %d", i, toks[i], toks[i].kind, k)
		}
	}
}

func TestLexerErrors(t *testing.T) {
	for _, bad := range []string{`'unterminated`, `a !b`, `a @ b`, `a - b`} {
		if _, err := lex(bad); err == nil {
			t.Errorf("lex(%q) accepted", bad)
		}
	}
	// Negative numbers are fine.
	toks, err := lex(`x = -42.5`)
	if err != nil || toks[2].kind != tokNumber || toks[2].text != "-42.5" {
		t.Errorf("negative number: %v, %v", toks, err)
	}
}

func TestParseMaterialize(t *testing.T) {
	cmd, err := Parse(`materialize males from census80 where SEX = 'M' and AVE_SALARY > 20000 project SEX,RACE,AVE_SALARY decode AGE_GROUP sort AVE_SALARY desc`)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := cmd.(Materialize)
	if !ok {
		t.Fatalf("parsed %T", cmd)
	}
	if m.View != "males" || m.Source != "census80" {
		t.Errorf("m = %+v", m)
	}
	if m.Where == nil || !strings.Contains(m.Where.String(), "SEX = M") {
		t.Errorf("where = %v", m.Where)
	}
	if len(m.Project) != 3 || m.Project[2] != "AVE_SALARY" {
		t.Errorf("project = %v", m.Project)
	}
	if len(m.Decode) != 1 || m.Decode[0] != "AGE_GROUP" {
		t.Errorf("decode = %v", m.Decode)
	}
	if len(m.SortBy) != 1 || !m.SortBy[0].Desc {
		t.Errorf("sort = %v", m.SortBy)
	}
}

func TestParsePredicateForms(t *testing.T) {
	cmd, err := Parse(`update v set A = null where B is null and C is not null and D != 3.5`)
	if err != nil {
		t.Fatal(err)
	}
	u := cmd.(Update)
	if !u.Value.IsNull() {
		t.Errorf("value = %v", u.Value)
	}
	s := u.Where.String()
	for _, want := range []string{"B is null", "C is not null", "D != 3.5"} {
		if !strings.Contains(s, want) {
			t.Errorf("predicate %q missing %q", s, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		``,
		`frobnicate x`,
		`materialize v`,                      // missing from
		`materialize v from`,                 // missing source
		`compute mean on v`,                  // missing attribute
		`update v set A 5 where B = 1`,       // missing =
		`update v set A = 5`,                 // missing where
		`show v limit 0`,                     // bad limit
		`show v limit x`,                     // non-numeric limit
		`views extra`,                        // trailing tokens
		`update v set A = 5 where B ~ 1`,     // bad operator
		`update v set A = 5 where B is frog`, // bad null form
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestParseSimpleCommands(t *testing.T) {
	cases := map[string]Command{
		"files":          Files{},
		"VIEWS":          Views{},
		"help":           Help{},
		"undo v":         Undo{View: "v"},
		"history v":      HistoryCmd{View: "v"},
		"publish v":      Publish{View: "v"},
		"summary v":      SummaryDump{View: "v"},
		"show v":         Show{View: "v", Limit: 10},
		"show v limit 3": Show{View: "v", Limit: 3},
		"shards v":       ShardsCmd{View: "v"},
	}
	for in, want := range cases {
		got, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("Parse(%q) = %#v, want %#v", in, got, want)
		}
	}
	c, err := Parse("compute MEDIAN AVE_SALARY on v")
	if err != nil || c.(Compute).Fn != "median" {
		t.Errorf("compute parse = %#v, %v", c, err)
	}
}

func testDBMS(t *testing.T) *core.DBMS {
	t.Helper()
	d := core.New()
	if err := d.LoadRaw("figure1", workload.Figure1()); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestExecutorEndToEnd(t *testing.T) {
	d := testDBMS(t)
	var out bytes.Buffer
	e := NewExecutor(d, "boral", &out)

	run := func(cmd string) string {
		t.Helper()
		out.Reset()
		if err := e.Run(cmd); err != nil {
			t.Fatalf("%q: %v", cmd, err)
		}
		return out.String()
	}

	if got := run("files"); !strings.Contains(got, "figure1") || !strings.Contains(got, "9 rows") {
		t.Errorf("files output: %q", got)
	}
	got := run("materialize whites from figure1 where RACE = 'W' sort AVE_SALARY")
	if !strings.Contains(got, "8 rows") {
		t.Errorf("materialize output: %q", got)
	}
	got = run("compute median AVE_SALARY on whites")
	if !strings.Contains(got, "median(AVE_SALARY)") {
		t.Errorf("compute output: %q", got)
	}
	got = run("summary whites")
	if !strings.Contains(got, "FUNCTION_NAME") || !strings.Contains(got, "median") {
		t.Errorf("summary output: %q", got)
	}
	got = run("update whites set AVE_SALARY = null where AVE_SALARY < 16000")
	if !strings.Contains(got, "1 rows updated") {
		t.Errorf("update output: %q", got)
	}
	got = run("history whites")
	if !strings.Contains(got, "set AVE_SALARY = NA") {
		t.Errorf("history output: %q", got)
	}
	run("undo whites")
	got = run("history whites")
	if strings.Contains(got, "set AVE_SALARY") {
		t.Errorf("history after undo: %q", got)
	}
	got = run("show whites limit 2")
	if !strings.Contains(got, "SEX") || !strings.Contains(got, "more rows") {
		t.Errorf("show output: %q", got)
	}
	run("publish whites")
	got = run("views")
	if !strings.Contains(got, "public") {
		t.Errorf("views output: %q", got)
	}
	if got := run("help"); !strings.Contains(got, "materialize") {
		t.Errorf("help output: %q", got)
	}
	// Empty input is a no-op.
	if err := e.Run("   "); err != nil {
		t.Errorf("blank input: %v", err)
	}
}

// TestShardsCommand covers the `shards V` verb: a view without a
// sharded backing errors, one with a backing prints a per-shard health
// table.
func TestShardsCommand(t *testing.T) {
	d := testDBMS(t)
	var out bytes.Buffer
	e := NewExecutor(d, "boral", &out)
	if err := e.Run("materialize mv from figure1"); err != nil {
		t.Fatal(err)
	}
	if err := e.Run("shards mv"); err == nil {
		t.Error("shards on unsharded view accepted")
	}
	if _, err := d.ShardView("mv", shard.Config{Shards: 2, Chunk: 4}); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := e.Run("shards mv"); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"HEALTH", "shard0", "shard1", "healthy"} {
		if !strings.Contains(got, want) {
			t.Errorf("shards output missing %q:\n%s", want, got)
		}
	}
}

func TestExecutorErrors(t *testing.T) {
	d := testDBMS(t)
	var out bytes.Buffer
	e := NewExecutor(d, "a", &out)
	for _, bad := range []string{
		"compute mean AVE_SALARY on missing",
		"undo missing",
		"publish missing",
		"materialize v from nothing",
		"update missing set A = 1 where B = 2",
		"not-a-command",
	} {
		if err := e.Run(bad); err == nil {
			t.Errorf("Run(%q) accepted", bad)
		}
	}
}

func TestExecutorPrivacy(t *testing.T) {
	d := testDBMS(t)
	var out bytes.Buffer
	owner := NewExecutor(d, "owner", &out)
	if err := owner.Run("materialize v from figure1"); err != nil {
		t.Fatal(err)
	}
	other := NewExecutor(d, "other", &out)
	if err := other.Run("show v"); err == nil {
		t.Error("private view visible to other analyst")
	}
	if err := owner.Run("publish v"); err != nil {
		t.Fatal(err)
	}
	if err := other.Run("show v"); err != nil {
		t.Errorf("published view unreadable: %v", err)
	}
}

func TestDecodeThroughLanguage(t *testing.T) {
	d := testDBMS(t)
	var out bytes.Buffer
	e := NewExecutor(d, "a", &out)
	if err := e.Run("materialize v from figure1 decode AGE_GROUP"); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := e.Run("show v limit 9"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "over 60") {
		t.Errorf("decoded labels missing: %q", out.String())
	}
}

// Parsed predicates must bind against real data sets.
func TestParsedPredicateCompiles(t *testing.T) {
	cmd, err := Parse("update v set AVE_SALARY = 1 where SEX = 'M' and AVE_SALARY >= 20000")
	if err != nil {
		t.Fatal(err)
	}
	u := cmd.(Update)
	ds := workload.Figure1()
	eval, err := u.Where.Bind(ds)
	if err != nil {
		t.Fatal(err)
	}
	mask := make([]bool, ds.Rows())
	eval(0, ds.Rows(), mask)
	n := 0
	for _, ok := range mask {
		if ok {
			n++
		}
	}
	if n != 4 { // male rows with salary >= 20000
		t.Errorf("matched %d rows, want 4", n)
	}
}
