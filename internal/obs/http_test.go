package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func get(t *testing.T, h *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := h.Client().Get(h.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, b.String()
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("query.statements").Add(7)
	r.Gauge("exec.inflight").Set(2)
	h := r.Histogram("query.wait_ticks", []int64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)

	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE statdb_query_statements counter\n" +
		"statdb_query_statements 7\n" +
		"# TYPE statdb_exec_inflight gauge\n" +
		"statdb_exec_inflight 2\n" +
		"# TYPE statdb_query_wait_ticks histogram\n" +
		"statdb_query_wait_ticks_bucket{le=\"10\"} 1\n" +
		"statdb_query_wait_ticks_bucket{le=\"100\"} 2\n" +
		"statdb_query_wait_ticks_bucket{le=\"+Inf\"} 3\n" +
		"statdb_query_wait_ticks_sum 5055\n" +
		"statdb_query_wait_ticks_count 3\n"
	if b.String() != want {
		t.Errorf("prometheus text:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("query.statements").Add(3)
	tr := NewTracer()
	sp := tr.Begin("query", A("stmt", "compute"))
	sp.Charge(12)
	sp.End()
	smp := NewSampler(r.Snapshot, 4, 0)
	r.Counter("query.statements").Inc()
	smp.Tick(10)

	srv := httptest.NewServer(NewHandler(HandlerConfig{Snap: r.Snapshot, Tracer: tr, Sampler: smp}))
	defer srv.Close()

	if code, body := get(t, srv, "/healthz"); code != 200 || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get(t, srv, "/metrics"); code != 200 || !strings.Contains(body, "statdb_query_statements 4") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	code, body := get(t, srv, "/statz")
	if code != 200 {
		t.Fatalf("/statz = %d", code)
	}
	var statz struct {
		Counters map[string]int64 `json:"counters"`
		Series   []Sample         `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &statz); err != nil {
		t.Fatalf("/statz not JSON: %v\n%s", err, body)
	}
	if statz.Counters["query.statements"] != 4 {
		t.Errorf("/statz counters = %v", statz.Counters)
	}
	if len(statz.Series) != 1 || statz.Series[0].Counters["query.statements"] != 1 {
		t.Errorf("/statz series = %+v", statz.Series)
	}
	if code, body := get(t, srv, "/tracez"); code != 200 || !strings.Contains(body, "query [stmt=compute]: self=12 total=12") {
		t.Errorf("/tracez = %d %q", code, body)
	}
}

func TestHandlerZeroConfig(t *testing.T) {
	srv := httptest.NewServer(NewHandler(HandlerConfig{}))
	defer srv.Close()
	for _, path := range []string{"/healthz", "/metrics", "/statz", "/tracez", "/profilez", "/profilez?format=json"} {
		if code, _ := get(t, srv, path); code != 200 {
			t.Errorf("%s = %d on zero config", path, code)
		}
	}
	if _, body := get(t, srv, "/tracez"); !strings.Contains(body, "(no traces)") {
		t.Errorf("/tracez zero config = %q", body)
	}
}

// TestHandlerScrapeUnderLoad hammers every endpoint while writers churn
// the registry and tracer — the race-detector proof that scraping a
// live system is safe. Meaningful under -race (the CI race step runs
// it).
func TestHandlerScrapeUnderLoad(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer()
	smp := NewSampler(r.Snapshot, 16, 0)
	srv := httptest.NewServer(NewHandler(HandlerConfig{Snap: r.Snapshot, Tracer: tr, Sampler: smp}))
	defer srv.Close()

	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(1)
	go func() { // query-shaped workload: spans + counters + samples
		defer writers.Done()
		c := r.Counter("query.statements")
		h := r.Histogram("query.wait_ticks", WaitTicksBounds())
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sp := tr.Begin("query")
			sp.Charge(i % 1000)
			sp.End()
			c.Inc()
			h.Observe(i % 5000)
			if i%50 == 0 {
				smp.Tick(i)
			}
		}
	}()

	paths := []string{"/metrics", "/statz", "/tracez", "/healthz"}
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; i < 25; i++ {
				if code, _ := get(t, srv, paths[(g+i)%len(paths)]); code != 200 {
					t.Errorf("scrape returned %d", code)
					return
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}
