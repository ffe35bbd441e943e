package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
)

// promName mangles a dotted canonical name into a Prometheus metric
// name: dots become underscores under the statdb_ namespace.
func promName(name string) string {
	return "statdb_" + strings.ReplaceAll(name, ".", "_")
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// samples, histograms as cumulative le-labelled buckets plus _sum and
// _count. Metric names are the canonical dotted names with dots
// mangled to underscores under a statdb_ namespace, so
// `summary.hits` scrapes as `statdb_summary_hits`.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", pn, pn, s.Gauges[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		hv := s.Histograms[n]
		pn := promName(n)
		var b strings.Builder
		fmt.Fprintf(&b, "# TYPE %s histogram\n", pn)
		var cum int64
		for i, bound := range hv.Bounds {
			if i < len(hv.Counts) {
				cum += hv.Counts[i]
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", pn, bound, cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", pn, hv.Count)
		fmt.Fprintf(&b, "%s_sum %d\n", pn, hv.Sum)
		fmt.Fprintf(&b, "%s_count %d\n", pn, hv.Count)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// HandlerConfig wires a Handler to the live system. Snap supplies the
// merged snapshot (core.DBMS.Metrics in the server); Tracer supplies
// recent span trees for /tracez; Sampler, when set, contributes the
// time-series window to /statz; Profiles serves the continuous profile
// ring at /profilez; SLO turns /healthz from a liveness stub into the
// rolling-objective report. All fields are optional — a zero config
// serves empty-but-valid responses, so the endpoint can come up before
// the DBMS does.
type HandlerConfig struct {
	Snap     func() Snapshot
	Tracer   *Tracer
	Sampler  *Sampler
	Profiles *ProfileRing
	SLO      *SLO
}

// NewHandler builds the exposition endpoint:
//
//	/metrics  — Prometheus text format
//	/statz    — JSON: snapshot plus the sampler's series window
//	/tracez   — plain-text span trees of the last N queries
//	/profilez — merged continuous profiles per verb (?format=json for JSON)
//	/healthz  — "ok" (or "warn" plus per-verb SLO lines under burn)
//
// Every handler reads through race-safe paths (registry snapshots,
// RingSink copies, ProfileRing merges), so it is safe to serve while
// queries execute.
func NewHandler(cfg HandlerConfig) http.Handler {
	snap := cfg.Snap
	if snap == nil {
		snap = NewSnapshot
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if cfg.SLO == nil {
			fmt.Fprintln(w, "ok")
			return
		}
		_ = cfg.SLO.Status().WriteText(w) //lint:allow error-flow best-effort write to an HTTP client
	})
	mux.HandleFunc("/profilez", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			merged := map[string]*Profile{}
			for _, v := range cfg.Profiles.Verbs() {
				merged[v] = cfg.Profiles.Merged(v)
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(merged)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if cfg.Profiles == nil {
			fmt.Fprintln(w, "(no profiles)")
			return
		}
		_ = cfg.Profiles.WriteText(w, 0) //lint:allow error-flow best-effort write to an HTTP client
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = snap().WritePrometheus(w) //lint:allow error-flow best-effort write to an HTTP client
	})
	mux.HandleFunc("/statz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		type statz struct {
			Counters   map[string]int64     `json:"counters"`
			Gauges     map[string]int64     `json:"gauges"`
			Histograms map[string]HistValue `json:"histograms"`
			Series     []Sample             `json:"series,omitempty"`
		}
		s := snap()
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(statz{
			Counters:   s.Counters,
			Gauges:     s.Gauges,
			Histograms: s.Histograms,
			Series:     cfg.Sampler.Samples(),
		})
	})
	mux.HandleFunc("/tracez", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		roots := cfg.Tracer.Recent()
		if len(roots) == 0 {
			fmt.Fprintln(w, "(no traces)")
			return
		}
		for i, root := range roots {
			if i > 0 {
				fmt.Fprintln(w)
			}
			_ = WriteTree(w, root) //lint:allow error-flow best-effort write to an HTTP client
		}
	})
	return mux
}
