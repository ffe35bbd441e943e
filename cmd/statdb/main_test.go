package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunNonInteractive(t *testing.T) {
	var out bytes.Buffer
	err := run("tester", 1, "", []string{
		"files",
		"materialize whites from figure1 where RACE = 'W'",
		"compute median AVE_SALARY on whites",
	}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"census80", "figure1", "8 rows", "median(AVE_SALARY)"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunCommandError(t *testing.T) {
	var out bytes.Buffer
	if err := run("tester", 1, "", []string{"bogus command"}, strings.NewReader(""), &out); err == nil {
		t.Error("bogus command accepted")
	}
}

func TestREPLLoop(t *testing.T) {
	input := strings.Join([]string{
		"materialize v from figure1",
		"not-a-command", // error is printed, loop continues
		"compute max POPULATION on v",
		"quit",
	}, "\n")
	var out bytes.Buffer
	if err := run("tester", 1, "", nil, strings.NewReader(input), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "statdb>") || !strings.Contains(s, "error:") {
		t.Errorf("REPL output: %q", s)
	}
	if !strings.Contains(s, "max(POPULATION) = 3.3422988e+07") {
		t.Errorf("compute missing: %q", s)
	}
}

func TestREPLPersistenceAcrossSessions(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	var out bytes.Buffer
	err := run("tester", 1, dir, []string{
		"materialize v from figure1 where SEX = 'M'",
		"publish v",
	}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "database saved") {
		t.Fatalf("no save: %q", out.String())
	}
	out.Reset()
	err = run("someone-else", 1, dir, []string{"show v limit 2"}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "loaded database") || !strings.Contains(s, "SEX") {
		t.Errorf("second session output: %q", s)
	}
}

func TestStatsSubcommand(t *testing.T) {
	var out bytes.Buffer
	err := run("tester", 1, "", []string{
		"materialize v from figure1",
		"compute mean POPULATION on v",
		"stats", // what `statdb stats` runs after joinArgs
	}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"counter summary.misses 1",
		"counter summary.hits 0",
		"counter query.statements 3",
		"counter view.column_scans 1",
		"gauge exec.inflight 0",
		"histogram query.ticks.compute count=1",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("stats output missing %q:\n%s", want, s)
		}
	}
}

func TestJoinArgs(t *testing.T) {
	if got := joinArgs([]string{"compute", "mean", "AGE", "on", "v"}); got != "compute mean AGE on v" {
		t.Errorf("joinArgs = %q", got)
	}
}

func TestExplainSubcommand(t *testing.T) {
	var out bytes.Buffer
	err := run("tester", 1, "", []string{
		"materialize v from figure1",
		"explain compute mean POPULATION on v",
	}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"mean(POPULATION) =",
		"query: self=0",
		"view.compute [fn=mean attr=POPULATION]",
		"fold [fn=mean engine=serial]",
		"total charge =",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("explain output missing %q:\n%s", want, s)
		}
	}
}
