// statdb-vet is the build-time contract checker: it parses and
// type-checks every non-test package with the stdlib go/ast and go/types
// tooling and enforces the engine's determinism, error and confinement
// invariants (see internal/analysis for the rule set and DESIGN.md
// "Static analysis" for the contract each rule encodes).
//
// Usage:
//
//	statdb-vet [-root dir] [-format text|json|sarif] [-rules] [pattern ...]
//
// Patterns are root-relative directories; a trailing /... selects the
// subtree and the default is ./... over the enclosing module. Findings
// print one per line as file:line: [rule-id] message; -format json
// emits JSONL (the legacy -json flag is an alias) and -format sarif
// emits a SARIF 2.1.0 document CI renders as inline annotations. Any
// finding makes the exit status 1; load or usage problems exit 2.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"statdb/internal/analysis"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("statdb-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as JSON lines (alias for -format json)")
	format := fs.String("format", "", "output format: text (default), json, or sarif")
	root := fs.String("root", "", "tree root to analyze (default: the enclosing module root)")
	listRules := fs.Bool("rules", false, "list the rule ids and contracts, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *format {
	case "":
		if *jsonOut {
			*format = "json"
		} else {
			*format = "text"
		}
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(stderr, "statdb-vet: unknown -format %q (want text, json or sarif)\n", *format)
		return 2
	}

	rules := analysis.DefaultRules()
	if *listRules {
		for _, r := range rules {
			fmt.Fprintf(stdout, "%-18s %s\n", r.ID(), r.Doc())
		}
		return 0
	}

	dir := *root
	if dir == "" {
		var err error
		dir, err = moduleRoot()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	tree, err := analysis.Load(dir, fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	findings := analysis.Run(tree, rules)
	switch *format {
	case "json":
		enc := json.NewEncoder(stdout)
		for _, f := range findings {
			if err := enc.Encode(f); err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
		}
	case "sarif":
		if err := writeSARIF(stdout, rules, findings); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	default:
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	if *format == "text" {
		fmt.Fprintf(stdout, "statdb-vet: ok (%d files, %d rules)\n", tree.NumFiles(), len(rules))
	}
	return 0
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("statdb-vet: no go.mod above the working directory; pass -root")
		}
		dir = parent
	}
}
