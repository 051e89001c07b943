package explorer

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// Error paths: malformed IDs and parameters must 400, missing rows must
// 404, and the failure pages must say why.
func TestExplorerErrorPaths(t *testing.T) {
	srv := New(seedStore(t))
	srv.Metrics = telemetry.NewRegistry()
	cases := []struct {
		path string
		code int
	}{
		{"/knowledge?id=banana", 400},
		{"/knowledge?id=", 400},
		{"/knowledge?id=999999", 404},
		{"/io500?id=banana", 400},
		{"/io500?id=999999", 404},
		{"/campaign?id=banana", 400},
		{"/campaign?id=999999", 404},
		{"/nonexistent-page", 404},
		// The metric is checked before any store read, so a filter that
		// matches nothing cannot turn a bad metric into a 200.
		{"/compare?metric=bogus&filter=nomatch", 400},
		{"/?limit=abc", 400},
		{"/traces?limit=0", 400},
	}
	for _, c := range cases {
		code, body := get(t, srv, c.path)
		if code != c.code {
			t.Errorf("GET %s = %d, want %d\n%s", c.path, code, c.code, body)
		}
	}

	// The front door's pipeline saw every request above, labelled by route.
	snap := srv.Metrics.Snapshot()
	if got := snap.Counters[telemetry.Label("api_requests_total", "path", "html_knowledge", "code", "400")]; got != 2 {
		t.Errorf("knowledge 400 counter = %d, want 2", got)
	}
	if got := snap.Counters[telemetry.Label("api_requests_total", "path", "html_knowledge", "code", "404")]; got != 1 {
		t.Errorf("knowledge 404 counter = %d, want 1", got)
	}
	if got := snap.Counters[telemetry.Label("api_requests_total", "path", "unmatched", "code", "404")]; got != 1 {
		t.Errorf("unmatched 404 counter = %d, want 1", got)
	}
}

func TestMetricsEndpoints(t *testing.T) {
	srv := New(seedStore(t))
	srv.Metrics = telemetry.NewRegistry()
	if code, _ := get(t, srv, "/"); code != 200 {
		t.Fatalf("warmup request = %d", code)
	}

	code, body := get(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("GET /metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE api_requests_total counter",
		`api_requests_total{path="html_index",code="200"} 1`,
		"# TYPE api_request_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get(t, srv, "/metrics.json")
	if code != 200 {
		t.Fatalf("GET /metrics.json = %d", code)
	}
	if !strings.Contains(body, `"counters"`) || !strings.Contains(body, "api_requests_total") {
		t.Errorf("/metrics.json body:\n%s", body)
	}
}

// TestMetricsGolden locks the Prometheus text exposition format against a
// golden file using a registry with fixed contents.
func TestMetricsGolden(t *testing.T) {
	srv := New(seedStore(t))
	reg := telemetry.NewRegistry()
	srv.Metrics = reg
	reg.Counter(telemetry.Label("kdb_plan_cache_total", "result", "hit")).Add(7)
	reg.Counter(telemetry.Label("kdb_plan_cache_total", "result", "miss")).Add(2)
	reg.Counter(telemetry.Label("kdb_join_total", "strategy", "index")).Add(5)
	reg.Counter(telemetry.Label("kdb_join_total", "strategy", "hash")).Add(1)
	reg.Counter("kdb_wal_flushes_total").Add(3)
	reg.Counter(telemetry.Label("kdb_checkpoint_total", "outcome", "written")).Add(2)
	reg.Counter(telemetry.Label("kdb_checkpoint_total", "outcome", "abandoned")).Add(1)
	reg.Gauge("kdb_wal_bytes_since_checkpoint").Set(4096)
	reg.Counter(telemetry.Label("kdb_fold_total", "outcome", "resumed")).Add(6)
	reg.Counter(telemetry.Label("kdb_fold_total", "outcome", "cold")).Add(2)
	reg.Counter(telemetry.Label("kdb_fold_total", "outcome", "stale")).Add(1)
	reg.Gauge("campaign_active_workers").Set(4)
	h := reg.HistogramBuckets(telemetry.Label("cycle_phase_seconds", "phase", "generation"), []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(2)

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	got := rec.Body.String()

	goldenPath := filepath.Join("testdata", "metrics.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from golden file:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPprofOptIn: the front door serves no profiling endpoints until they
// are mounted on it, as `iokc serve --pprof` does.
func TestPprofOptIn(t *testing.T) {
	srv := New(seedStore(t))
	srv.Metrics = telemetry.NewRegistry()
	if code, _ := get(t, srv, "/debug/pprof/"); code != 404 {
		t.Fatalf("pprof reachable without opt-in: %d", code)
	}
	srv.Handle("/debug/pprof/", "pprof", telemetry.Pprof())
	if code, _ := get(t, srv, "/debug/pprof/"); code != 200 {
		t.Fatalf("pprof after mounting = %d", code)
	}
}
