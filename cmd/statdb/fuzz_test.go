package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"statdb/internal/obs"
	"statdb/internal/query"
)

// touchesFiles reports whether cmd reads or writes a path the statement
// names (import, export, save — bare or wrapped in explain/profile). The
// fuzzer must not be handed the file system.
func touchesFiles(cmd query.Command) bool {
	switch c := cmd.(type) {
	case query.ImportCmd, query.ExportCmd, query.SaveCmd:
		return true
	case query.ExplainCmd:
		return touchesFiles(c.Inner)
	case query.ProfileCmd:
		return touchesFiles(c.Inner)
	}
	return false
}

// FuzzQueryBody drives POST /query with arbitrary bodies and session
// ids against a freshly booted server state: the handler never panics,
// and nothing a client can send is the server's fault — every answer is
// 200, 400 or 429, never a 5xx.
func FuzzQueryBody(f *testing.F) {
	boot, err := bootDBMS(1, "", io.Discard)
	if err != nil {
		f.Fatal(err)
	}
	var help bytes.Buffer
	if err := query.NewExecutor(boot, "analyst", &help).Run("help"); err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(help.String(), "\n")[1:] {
		form, _, _ := strings.Cut(strings.TrimSpace(line), "  ")
		// A form that names a file would only be skipped below.
		if cmd, err := query.Parse(form); form == "" || err == nil && touchesFiles(cmd) {
			continue
		}
		f.Add([]byte(form), "s1")
	}
	f.Add([]byte("materialize mv from census80 project POPULATION,AVE_SALARY"), "boot")
	f.Add([]byte("compute median AVE_SALARY on mv"), "")
	f.Add([]byte("histogram POPULATION on mv bins 99999999999"), "a b&c=d")
	f.Add([]byte{0xff, 0x00, '\''}, "\x00")
	f.Add([]byte("explain compute median AVE_SALARY on mv"), "s1")
	f.Add([]byte("profile histogram POPULATION on mv bins 3"), "s1")
	f.Fuzz(func(t *testing.T, body []byte, session string) {
		if cmd, err := query.Parse(string(body)); err == nil && touchesFiles(cmd) {
			t.Skip("statement names a file path")
		}
		d, err := bootDBMS(1, "", io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		elog, err := obs.NewEventLog(obs.EventLogConfig{W: io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		hub := newSessionHub(d, "analyst", elog, 0)
		target := "/query?" + url.Values{"session": {session}}.Encode()
		// A view for statements to land on, then the fuzzed request twice:
		// the second meets whatever state the first left behind.
		for _, b := range [][]byte{[]byte("materialize mv from census80 project POPULATION,AVE_SALARY"), body, body} {
			rec := httptest.NewRecorder()
			hub.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(b)))
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusTooManyRequests:
			default:
				t.Fatalf("POST %s %q answered %d: %s", target, b, rec.Code, rec.Body.String())
			}
		}
	})
}
