// Command benchmark is statdb's statement-level wall-clock benchmark:
// five analyst workloads sent through the real front door
// (query.Executor.RunMeasured in serve configuration), every answer
// checked against the benchmark's own oracle, and — with -trace 1 — a
// traced run that times the calls into each layer from outside.
// README.md documents every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// setupsPerRun is how many fixtures one run builds from its seed:
// setup_s is their median and each is measured for a third of -seconds.
const setupsPerRun = 3

// runsPerSet is how many runs of each workload a set takes; a set
// reports their median.
const runsPerSet = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload once and print one JSON result line (default: a set over all five)")
	seed := fs.Int64("seed", 1, "seed for the generated data and statement order")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced run (per-layer metrics, span file); 0: end-to-end metrics")
	scaleName := fs.String("scale", "full", "full (200 000 rows) or tiny (2 000 rows, counts / 100)")
	check := fs.Bool("check", false, "run two sets back to back and fail if any end-to-end median moves beyond its bound")
	outDir := fs.String("out", defaultOutDir(), "directory for trace and result files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc, ok := scales[*scaleName]
	if !ok || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -help")
		return 2
	}
	opt := options{sc: sc, setups: setupsPerRun, budget: time.Duration(*seconds * float64(time.Second)), outDir: *outDir}

	if *workload != "" {
		w := workloadByName(*workload)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		return single(w, *seed, opt, *trace == 1, stdout, stderr)
	}
	first, err := runSet(*seed, opt, runsPerSet, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	report := report{Env: environment(*seed, sc), Sets: []*set{first}}
	code := first.exitCode()
	if *check {
		second, err := runSet(*seed, opt, runsPerSet, false, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		report.Sets = append(report.Sets, second)
		if c := compareSets(first, second, stdout); c > code {
			code = c
		}
		if c := second.exitCode(); c > code {
			code = c
		}
	}
	if err := report.write(*outDir); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return code
}

// defaultOutDir is benchmark/out whether the command is started from
// the repository root or from the benchmark's own directory.
func defaultOutDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// driverResult is the one line the driver reads.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// single runs one workload once and prints the driver's result line:
// the end-to-end metrics, or with tracing the per-layer ones.
func single(w *workload, seed int64, opt options, tracing bool, stdout, stderr io.Writer) int {
	var res driverResult
	if tracing {
		tr, err := runTraced(w, seed, opt)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		res = driverResult{Attempted: tr.Attempted, Failed: tr.Failed, Metrics: fill(perLayer, tr.Metrics)}
	} else {
		r, err := runOnce(w, seed, opt)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s: %d rounds, %d statements, tail = p%g with %d samples beyond\n",
			w.name, r.Rounds, r.Statements, r.TailPct, r.TailBeyond)
		res = driverResult{Attempted: r.Attempted, Failed: r.Failed, Metrics: fill(endToEnd, r.Metrics)}
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "benchmark: %s: %d of %d statements failed or were answered wrongly\n", w.name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// set is every workload run `runs` times; each end-to-end metric's value
// is the median over the runs, each run on a fresh fixture.
type set struct {
	Runs    map[string][]*runResult       `json:"runs"`    // by workload
	Medians map[string]map[string]float64 `json:"medians"` // by workload, metric
	Traced  map[string]*tracedResult      `json:"traced,omitempty"`
}

func runSet(seed int64, opt options, runs int, tracing bool, stdout io.Writer) (*set, error) {
	s := &set{Runs: map[string][]*runResult{}, Medians: map[string]map[string]float64{}, Traced: map[string]*tracedResult{}}
	for _, w := range workloads {
		for i := 0; i < runs; i++ {
			r, err := runOnce(w, seed, opt)
			if err != nil {
				return nil, err
			}
			s.Runs[w.name] = append(s.Runs[w.name], r)
		}
		s.Medians[w.name] = map[string]float64{}
		for _, d := range endToEnd {
			var vals []float64
			for _, r := range s.Runs[w.name] {
				vals = append(vals, r.Metrics[d.name])
			}
			s.Medians[w.name][d.name] = median(vals)
			fmt.Fprintf(stdout, "%-15s %-28s %14.4f %-6s runs %v\n", w.name, d.name, median(vals), d.unit, vals)
		}
		last := s.Runs[w.name][runs-1]
		fmt.Fprintf(stdout, "%-15s %-28s %14d %-6s of %d attempted (tail = p%g, %d samples beyond)\n",
			w.name, "failed", s.failed(w.name), "count", s.attempted(w.name), last.TailPct, last.TailBeyond)
		if tracing {
			tr, err := runTraced(w, seed, opt)
			if err != nil {
				return nil, err
			}
			s.Traced[w.name] = tr
			for _, d := range perLayer {
				fmt.Fprintf(stdout, "%-15s %-28s %14.4f %s\n", w.name, d.name, tr.Metrics[d.name], d.unit)
			}
		}
	}
	return s, nil
}

func (s *set) attempted(workload string) (n int) {
	for _, r := range s.Runs[workload] {
		n += r.Attempted
	}
	if tr := s.Traced[workload]; tr != nil {
		n += tr.Attempted
	}
	return n
}

func (s *set) failed(workload string) (n int) {
	for _, r := range s.Runs[workload] {
		n += r.Failed
	}
	if tr := s.Traced[workload]; tr != nil {
		n += tr.Failed
	}
	return n
}

// exitCode is 1 when any statement of the set failed or was answered
// wrongly.
func (s *set) exitCode() int {
	for name := range s.Runs {
		if s.failed(name) > 0 {
			return 1
		}
	}
	return 0
}

// compareSets prints, per workload and end-to-end metric, the two sets'
// medians, their relative gap and the bound, and returns 1 if any gap is
// beyond its bound: that metric does not resolve a change of its bound's
// size on this machine, which is reported, never fixed by widening the
// bound here.
func compareSets(a, b *set, stdout io.Writer) int {
	code := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			m1, m2 := a.Medians[w.name][d.name], b.Medians[w.name][d.name]
			gap := math.Abs(m2-m1) / m1
			verdict := "ok"
			if gap > d.bound {
				verdict, code = "UNRESOLVED", 1
			}
			fmt.Fprintf(stdout, "check %-15s %-16s %14.4f %14.4f gap %6.2f%% bound %5.1f%% %s\n",
				w.name, d.name, m1, m2, 100*gap, 100*d.bound, verdict)
		}
	}
	return code
}

// env records where and on what the numbers were taken.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Scale      string `json:"scale"`
	Rows       int    `json:"rows"`
}

func environment(seed int64, sc scale) env {
	e := env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Seed: seed, Scale: sc.name, Rows: sc.rows}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				e.Commit = kv.Value
			}
		}
	}
	return e
}

// report is the result file of a set (or of -check's two sets): every
// run's values beside each median.
type report struct {
	Env  env    `json:"env"`
	Sets []*set `json:"sets"`
}

func (r report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result.json"), append(data, '\n'), 0o644)
}
