// Command experiments runs the complete reproduction suite — every paper
// figure and every quantitative claim (see DESIGN.md's per-experiment
// index) — and prints each result table. Output is deterministic: every
// cell is a virtual tick, pass, cell or count fixed by the seed, never
// wall time — except E19's throughput, latency and shed columns, which
// measure the load driver's own wall-clock queueing.
//
// Usage:
//
//	experiments [-only ID] [-json]
//
// With -json results are emitted as machine-readable JSON instead of
// aligned text: a single table object with -only, an array otherwise —
// the format of the committed BENCH_*.json perf-trajectory snapshots.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"statdb/internal/bench"
)

func main() {
	only := flag.String("only", "", "run only the experiment with this ID (e.g. E4)")
	asJSON := flag.Bool("json", false, "emit JSON instead of aligned text")
	flag.Parse()

	var tables []*bench.Table
	for _, ex := range bench.All() {
		if *only != "" && !strings.EqualFold(*only, ex.ID) {
			continue
		}
		tab, err := ex.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", ex.ID, err)
			os.Exit(1)
		}
		if !*asJSON {
			if err := tab.Render(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
		}
		tables = append(tables, tab)
	}
	if len(tables) == 0 {
		fmt.Fprintf(os.Stderr, "experiments: no experiment %q\n", *only)
		os.Exit(1)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		var err error
		if *only != "" && len(tables) == 1 {
			err = enc.Encode(tables[0])
		} else {
			err = enc.Encode(tables)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
}
