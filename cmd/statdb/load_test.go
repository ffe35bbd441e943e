package main

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"statdb/internal/load"
)

// TestLoadInProcess runs the subcommand end to end over the built-in
// fixture and pins the human report's shape.
func TestLoadInProcess(t *testing.T) {
	var out, errOut strings.Builder
	code := runLoad([]string{
		"-sessions", "4", "-ops", "10", "-rows", "512", "-seed", "3",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d; err=%q", code, errOut.String())
	}
	text := out.String()
	for _, want := range []string{"load: sessions=4 statements=40 errors=0 shed=0", "gate: admitted="} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

// TestLoadJSONDeterministic pins -json output and the determinism
// contract at the CLI level: same seed, same digest.
func TestLoadJSONDeterministic(t *testing.T) {
	runJSON := func() *load.Report {
		var out, errOut strings.Builder
		code := runLoad([]string{
			"-sessions", "3", "-ops", "8", "-rows", "512", "-seed", "11", "-json",
		}, &out, &errOut)
		if code != 0 {
			t.Fatalf("exit %d; err=%q", code, errOut.String())
		}
		var rep load.Report
		if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
			t.Fatalf("unparseable -json output: %v\n%s", err, out.String())
		}
		return &rep
	}
	a, b := runJSON(), runJSON()
	if a.Digest != b.Digest || a.Ticks != b.Ticks {
		t.Errorf("same seed diverged: digest %x/%x ticks %d/%d", a.Digest, b.Digest, a.Ticks, b.Ticks)
	}
	if a.Statements != 3*8 {
		t.Errorf("statements = %d, want 24", a.Statements)
	}
}

// TestLoadAgainstServe is the full remote path: a live `statdb serve`,
// sessions driven over POST /query, live wall percentiles on /healthz,
// and the server's own load.sessions counter moving — the contract the
// CI smoke step greps for.
func TestLoadAgainstServe(t *testing.T) {
	var out, errOut syncBuf
	pr, pw := io.Pipe()
	defer pw.Close()
	exit := make(chan int, 1)
	go func() {
		exit <- runServe([]string{
			"-listen", "127.0.0.1:0",
			"-sample-interval", "10ms",
		}, pr, &out, &errOut)
	}()
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address; out=%q err=%q", out.String(), errOut.String())
		}
		if m := serveAddrRe.FindStringSubmatch(out.String()); m != nil {
			base = "http://" + m[1]
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	// The census fixture has no "mv" microdata view; build one the load
	// traces can compute over, through the same /query path.
	resp := postQuery(t, base, "boot", "materialize mv from census80 project POPULATION,AVE_SALARY")
	if !strings.Contains(resp, "materialized") {
		t.Fatalf("materialize over /query = %q", resp)
	}

	var loadOut, loadErr strings.Builder
	code := runLoad([]string{
		"-sessions", "3", "-ops", "6", "-seed", "5",
		"-view", "mv", "-attrs", "POPULATION,AVE_SALARY",
		"-target", base,
	}, &loadOut, &loadErr)
	if code != 0 {
		t.Fatalf("load exit %d; err=%q out=%q", code, loadErr.String(), loadOut.String())
	}
	if !strings.Contains(loadOut.String(), "load: sessions=3 statements=18 errors=0") {
		t.Errorf("load report: %q", loadOut.String())
	}

	// Server-side evidence: every session counted once (boot and the
	// three load sessions), wall percentiles live.
	if _, metrics := httpGet(t, base+"/metrics"); !regexp.MustCompile(`(?m)^statdb_load_sessions 4$`).MatchString(metrics) {
		t.Errorf("/metrics load.sessions is not 4 (boot + 3 sessions):\n%s", metrics)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		_, health := httpGet(t, base+"/healthz")
		if strings.Contains(health, "slo compute:") && strings.Contains(health, "wall_p50=") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz never showed live wall percentiles: %q", health)
		}
		time.Sleep(20 * time.Millisecond)
	}

	if _, err := io.WriteString(pw, "quit\n"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exit:
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down")
	}
}

// postQuery POSTs one statement to the serve /query endpoint.
func postQuery(t *testing.T, base, session, stmt string) string {
	t.Helper()
	resp, err := http.Post(base+"/query?session="+session, "text/plain", strings.NewReader(stmt))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("POST /query %q = %d: %s", stmt, resp.StatusCode, body)
	}
	return string(body)
}
