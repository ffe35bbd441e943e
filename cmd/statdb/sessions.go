package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"statdb/internal/core"
	"statdb/internal/obs"
	"statdb/internal/query"
)

// sessionHub is the serve-side session layer behind POST /query: one
// query.Executor per session id, created on first use, each with its
// own answer buffer, session attribution, and session budget. The
// admission gate — not the hub — serializes statement execution; the
// per-session lock only serializes requests within one session, which
// a well-behaved client issues serially anyway.
type sessionHub struct {
	d            *core.DBMS
	analyst      string
	elog         *obs.EventLog
	sessionTicks int64

	mu       sync.Mutex
	sessions map[string]*serveSession

	cSessions *obs.Counter
	reg       *obs.Registry
}

type serveSession struct {
	mu  sync.Mutex
	buf bytes.Buffer
	e   *query.Executor
}

func newSessionHub(d *core.DBMS, analyst string, elog *obs.EventLog, sessionTicks int64) *sessionHub {
	reg := d.MetricsRegistry()
	return &sessionHub{
		d:            d,
		analyst:      analyst,
		elog:         elog,
		sessionTicks: sessionTicks,
		sessions:     make(map[string]*serveSession),
		cSessions:    reg.Counter(obs.MLoadSessions),
		reg:          reg,
	}
}

func (h *sessionHub) session(id string) *serveSession {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.sessions[id]
	if !ok {
		s = &serveSession{}
		s.e = query.NewExecutor(h.d, h.analyst, &s.buf)
		s.e.SetSession(id)
		s.e.SetEventLog(h.elog)
		s.e.SetSessionBudget(obs.NewBudget(h.sessionTicks, 0))
		h.sessions[id] = s
		// The server counts the sessions it has observed under
		// load.sessions, so a remote load run is visible on the
		// server's own /metrics.
		h.cSessions.Inc()
	}
	return s
}

// ServeHTTP answers POST /query?session=ID with the statement's
// rendered result. Shed statements answer 429 (the admission queue or
// the session quota refused them); other failures answer 400. The
// handler owns the request's wall time and feeds it to the per-verb
// query.wall_us histograms, which is what puts live wall percentiles
// next to tick percentiles on /healthz during load.
func (h *sessionHub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a statement body to /query", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	stmt := strings.TrimSpace(string(body))
	if stmt == "" {
		http.Error(w, "empty statement", http.StatusBadRequest)
		return
	}
	id := r.URL.Query().Get("session")
	if id == "" {
		id = "default"
	}
	s := h.session(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf.Reset()
	t0 := time.Now()
	m, err := s.e.RunMeasured(stmt)
	wallUs := time.Since(t0).Microseconds()
	if m.Verb != "" {
		h.reg.Histogram(obs.LabeledName(obs.MQueryWallUs, m.Verb), obs.WallUsBounds()).Observe(wallUs)
	}
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, core.ErrShed) {
			code = http.StatusTooManyRequests
		}
		http.Error(w, err.Error(), code)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.buf.String())
}
