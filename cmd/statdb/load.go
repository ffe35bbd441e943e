package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"statdb/internal/core"
	"statdb/internal/load"
	"statdb/internal/obs"
	"statdb/internal/query"
	"statdb/internal/workload"
)

// runLoad is the `statdb load` subcommand: a deterministic
// multi-session load run, either in-process over a fresh microdata
// fixture or against a live `statdb serve` via POST /query.
func runLoad(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("statdb load", flag.ContinueOnError)
	fs.SetOutput(errw)
	sessions := fs.Int("sessions", 8, "concurrent simulated analyst sessions")
	ops := fs.Int("ops", 50, "statements per session")
	seed := fs.Int64("seed", 1, "trace and schedule seed")
	arrival := fs.String("arrival", "closed", "arrival model: closed (think-time loop) or open (scheduled)")
	thinkUs := fs.Int64("think-us", 0, "closed-loop mean think time between statements (µs)")
	rateUs := fs.Int64("rate-us", 0, "open-loop mean inter-arrival gap per session (µs)")
	sessionTicks := fs.Int64("session-ticks", 0, "per-session tick quota; spent sessions shed (0 = unlimited)")
	slots := fs.Int("gate-slots", 1, "admission gate concurrency (in-process)")
	queue := fs.Int("gate-queue", 4096, "admission gate queue bound (in-process)")
	rows := fs.Int("rows", 4096, "microdata rows in the in-process fixture")
	repeatBias := fs.Float64("repeat-bias", 0.6, "probability an op repeats an earlier (fn, attr) pair")
	view := fs.String("view", "mv", "view the traces compute over")
	attrs := fs.String("attrs", "AGE,SALARY", "comma-separated trace attributes")
	target := fs.String("target", "", "base URL of a live `statdb serve` to drive instead of in-process")
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := load.Config{
		Sessions:   *sessions,
		Ops:        *ops,
		Seed:       *seed,
		Arrival:    *arrival,
		ThinkUs:    *thinkUs,
		RateUs:     *rateUs,
		View:       *view,
		Attrs:      strings.Split(*attrs, ","),
		RepeatBias: *repeatBias,
		Clock:      load.NewClock(),
	}
	if *sessionTicks > 0 {
		cfg.SessionTicks = *sessionTicks
	}

	var d *core.DBMS
	if *target == "" {
		d = core.New()
		if err := d.LoadRaw("micro", workload.Microdata(*rows, *seed)); err != nil {
			fmt.Fprintln(errw, "statdb load:", err)
			return 1
		}
		var buf bytes.Buffer
		e := query.NewExecutor(d, "analyst", &buf)
		stmt := fmt.Sprintf("materialize %s from micro project %s", cfg.View, *attrs)
		if err := e.Run(stmt); err != nil {
			fmt.Fprintln(errw, "statdb load:", err)
			return 1
		}
		d.SetGate(core.NewGate(core.GateConfig{
			Slots: *slots,
			Queue: *queue,
			Reg:   d.MetricsRegistry(),
			Wall:  wallClockUs(),
		}))
		cfg.NewSession = load.InProcess(d, "analyst")
	} else {
		cfg.NewSession = httpSessions(strings.TrimRight(*target, "/"))
	}

	drv, err := load.New(cfg)
	if err != nil {
		fmt.Fprintln(errw, "statdb load:", err)
		return 1
	}
	rep, err := drv.Run()
	if err != nil {
		fmt.Fprintln(errw, "statdb load:", err)
		return 1
	}

	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(errw, "statdb load:", err)
			return 1
		}
	} else {
		writeLoadReport(out, rep, d)
	}
	if rep.Errors > 0 {
		return 1
	}
	return 0
}

// wallClockUs returns a µs wall-clock shim for the admission gate.
func wallClockUs() func() int64 {
	start := time.Now()
	return func() int64 { return time.Since(start).Microseconds() }
}

// httpSessions drives a live statdb serve: each statement is one POST
// /query?session=ID. The server owns all measurement; the client's
// Measured stays zero.
func httpSessions(base string) func(id string, budget *obs.Budget) load.Exec {
	client := &http.Client{Timeout: 30 * time.Second}
	return func(id string, budget *obs.Budget) load.Exec {
		endpoint := base + "/query?session=" + url.QueryEscape(id)
		return func(stmt string) (string, query.Measured, error) {
			resp, err := client.Post(endpoint, "text/plain", strings.NewReader(stmt))
			if err != nil {
				return "", query.Measured{}, err
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			if err != nil {
				return "", query.Measured{}, err
			}
			if resp.StatusCode != http.StatusOK {
				return "", query.Measured{}, fmt.Errorf("%s", strings.TrimSpace(string(body)))
			}
			return string(body), query.Measured{}, nil
		}
	}
}

// writeLoadReport renders the human summary: totals, wall results, and
// — for in-process runs — the gate's admission ledger.
func writeLoadReport(out io.Writer, rep *load.Report, d *core.DBMS) {
	fmt.Fprintf(out, "load: sessions=%d statements=%d errors=%d shed=%d ticks=%d digest=%016x\n",
		rep.Sessions, rep.Statements, rep.Errors, rep.Shed, rep.Ticks, rep.Digest)
	if rep.ElapsedUs > 0 {
		fmt.Fprintf(out, "wall: elapsed=%dus throughput=%.1f/s p50=%dus p90=%dus p99=%dus\n",
			rep.ElapsedUs, rep.Throughput, rep.P50Us, rep.P90Us, rep.P99Us)
	}
	if d != nil {
		snap := d.Metrics()
		fmt.Fprintf(out, "gate: admitted=%d shed=%d wait_p99=%s\n",
			snap.Counters[obs.MGateAdmitted], snap.Counters[obs.MGateShed],
			histP99(snap.Histograms[obs.MGateWaitWall]))
	}
}

func histP99(hv obs.HistValue) string {
	if v, ok := hv.Quantile(0.99); ok {
		return fmt.Sprintf("%.0fus", v)
	}
	return "n/a"
}
