package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestParseServeArgs(t *testing.T) {
	cfg, err := parseServeArgs([]string{
		"--db", "k.db", "--addr", "127.0.0.1:8181", "--api",
		"--api-rate", "100", "--api-max-inflight", "64",
		"--replica", "kdb://127.0.0.1:7070",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.apiOn || cfg.apiRate != 100 || cfg.apiMaxInflight != 64 {
		t.Errorf("cfg = %+v", cfg)
	}
	if cfg.apiBurst != 100 {
		t.Errorf("burst should default to rate, got %v", cfg.apiBurst)
	}
	if len(cfg.replicas) != 1 {
		t.Errorf("replicas = %v", cfg.replicas)
	}
}

// waitHTTP polls until the server answers (or the deadline passes).
func waitHTTP(t *testing.T, url string) *http.Response {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			return resp
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("%s never came up", url)
	return nil
}

// TestServeGracefulShutdown pins the drain-on-SIGTERM contract for the
// combined explorer+API listener: cancelling the context must close the
// port and return nil (a clean drain), not leave the listener accepting.
func TestServeGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	addr := reservePort(t)
	cfg, err := parseServeArgs([]string{"--db", dir + "/k.db", "--addr", addr, "--api"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- runServe(ctx, cfg) }()

	// Both fronts answer on the one listener.
	resp := waitHTTP(t, "http://"+addr+"/v1/healthz")
	var st map[string]any
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st["role"] != "primary" {
		t.Fatalf("healthz role %v", st["role"])
	}
	resp = waitHTTP(t, "http://"+addr+"/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explorer status %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Unknown API paths are structured JSON 404s, not explorer HTML.
	resp = waitHTTP(t, "http://"+addr+"/v1/definitely-not-here")
	if resp.StatusCode != http.StatusNotFound || !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		t.Fatalf("API 404: status %d type %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	resp.Body.Close()

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("runServe returned %v on graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("runServe did not return after cancel")
	}
	if _, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestServeDBMetricsListenerStopsWithServer pins the satellite fix: the
// /metrics side listener must go down with the wire server instead of
// outliving the drain and advertising a dead node as healthy.
func TestServeDBMetricsListenerStopsWithServer(t *testing.T) {
	dir := t.TempDir()
	wireAddr := reservePort(t)
	metricsAddr := reservePort(t)
	cfg, err := parseServeDBArgs([]string{
		"--db", dir + "/m.kdb", "--addr", wireAddr, "--metrics-addr", metricsAddr,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- runServeDB(ctx, cfg) }()

	resp := waitHTTP(t, "http://"+metricsAddr+"/healthz")
	resp.Body.Close()

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("runServeDB returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("runServeDB did not return after cancel")
	}
	if _, err := net.DialTimeout("tcp", metricsAddr, 200*time.Millisecond); err == nil {
		t.Fatal("metrics listener outlived the wire server")
	}
	if _, err := net.DialTimeout("tcp", wireAddr, 200*time.Millisecond); err == nil {
		t.Fatal("wire listener still accepting after shutdown")
	}
}

// TestServeAPIOnly ensures --api-only serves no HTML explorer.
func TestServeAPIOnly(t *testing.T) {
	dir := t.TempDir()
	addr := reservePort(t)
	cfg, err := parseServeArgs([]string{"--db", dir + "/k.db", "--addr", addr, "--api-only"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- runServe(ctx, cfg) }()

	resp := waitHTTP(t, fmt.Sprintf("http://%s/v1/healthz", addr))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", resp.StatusCode)
	}
	resp, err = http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		t.Fatalf("api-only root: status %d type %s, want JSON 404", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
