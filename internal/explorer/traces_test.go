package explorer

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/kdb"
	"repro/internal/kdb/kdbtest"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

func resetTraces(t *testing.T) {
	t.Helper()
	t.Cleanup(func() { telemetry.Traces.Reset() })
	telemetry.Traces.Reset()
}

func TestTracesPageEmpty(t *testing.T) {
	resetTraces(t)
	srv := New(seedStore(t))
	srv.Metrics = telemetry.NewRegistry()
	code, body := get(t, srv, "/traces")
	if code != 200 {
		t.Fatalf("GET /traces = %d", code)
	}
	if !strings.Contains(body, "--slow-query") || !strings.Contains(body, "__slow_queries") {
		t.Errorf("empty page should hint how to enable the log:\n%s", body)
	}
	// The page is linked from the shared nav.
	if !strings.Contains(body, `href="/traces"`) {
		t.Error("nav missing the Traces link")
	}
}

func TestTracesPageListsAndRendersTree(t *testing.T) {
	resetTraces(t)
	began := time.Date(2026, 8, 8, 11, 0, 0, 0, time.UTC)
	telemetry.Traces.RecordSlow(telemetry.SlowQuery{
		TraceID: "deadbeef01", SQL: "SELECT v FROM ev", Node: "coordinator",
		Start: began, Seconds: 1.25, Rows: 8})
	telemetry.Traces.Record(telemetry.SpanRecord{
		TraceID: "deadbeef01", SpanID: "root1", Name: "coordinator.scatter", Node: "coordinator",
		Start: began, Seconds: 1.25, SQL: "SELECT v FROM ev",
		Attrs: []telemetry.Attr{{Key: "fanout", Value: "2"}}})
	telemetry.Traces.Record(telemetry.SpanRecord{
		TraceID: "deadbeef01", SpanID: "kid1", ParentID: "root1", Name: "shard 0", Node: "shard-0",
		Start: began.Add(time.Millisecond), Seconds: 0.5,
		Attrs: []telemetry.Attr{{Key: "rows", Value: "4"}}})
	// An orphan (its parent fell out of the ring) must still render.
	telemetry.Traces.Record(telemetry.SpanRecord{
		TraceID: "deadbeef01", SpanID: "lost1", ParentID: "gone", Name: "db.select",
		Start: began.Add(2 * time.Millisecond), Seconds: 0.1})

	srv := New(seedStore(t))
	srv.Metrics = telemetry.NewRegistry()

	code, body := get(t, srv, "/traces")
	if code != 200 {
		t.Fatalf("GET /traces = %d", code)
	}
	for _, want := range []string{"/traces?id=deadbeef01", "SELECT v FROM ev", "coordinator", "1.250000"} {
		if !strings.Contains(body, want) {
			t.Errorf("list page missing %q:\n%s", want, body)
		}
	}

	code, body = get(t, srv, "/traces?id=deadbeef01")
	if code != 200 {
		t.Fatalf("GET /traces?id = %d", code)
	}
	for _, want := range []string{"coordinator.scatter", "shard 0", "fanout=2", "rows=4", "db.select"} {
		if !strings.Contains(body, want) {
			t.Errorf("trace page missing %q:\n%s", want, body)
		}
	}
	// The child renders indented under its parent.
	if !strings.Contains(body, "&nbsp;&nbsp;&nbsp;shard 0") {
		t.Errorf("child span not indented:\n%s", body)
	}

	code, body = get(t, srv, "/traces?id=unknowntrace")
	if code != 200 {
		t.Fatalf("GET unknown trace = %d", code)
	}
	if !strings.Contains(body, "no spans retained") {
		t.Errorf("unknown trace should explain itself:\n%s", body)
	}
}

// TestTracesPageWhileHopsRecord: /traces reads the shared trace store
// through the shared assembler while other goroutines keep recording into
// it (run under -race by the gate).
func TestTracesPageWhileHopsRecord(t *testing.T) {
	resetTraces(t)
	srv := New(seedStore(t))
	srv.Metrics = telemetry.NewRegistry()
	root := telemetry.JoinHop(telemetry.TraceContext{TraceID: "live"}, "campaign live")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				h := telemetry.JoinHop(root.Context(), "unit")
				h.Attr("error", "kdb: no such table t")
				h.End()
			}
		}()
	}
	recorded := make(chan struct{})
	go func() { wg.Wait(); close(recorded) }()
	for reading := true; reading; {
		select {
		case <-recorded:
			reading = false
		default:
			if code, _ := get(t, srv, "/traces?id=live"); code != 200 {
				t.Errorf("GET /traces?id=live = %d", code)
			}
		}
	}
	root.End()
	_, body := get(t, srv, "/traces?id=live")
	if !strings.Contains(body, "campaign live") || !strings.Contains(body, "&nbsp;&nbsp;&nbsp;unit") ||
		!strings.Contains(body, "error=&#34;kdb: no such table t&#34;") {
		t.Errorf("trace page after recording:\n%.600s", body[strings.Index(body, "<h2>"):])
	}
}

// TestHealthzCarriesEpochAndLag: a store opened from a shard:// URL serves
// its partition map's epoch, and the lag fields stay present (zero: no
// shard here has replicas) — read off the store, no health source wired.
func TestHealthzCarriesEpochAndLag(t *testing.T) {
	specs := make([]shard.Spec, 2)
	for i := range specs {
		db := kdbtest.MemDB(t, kdb.DBOptions{AutoIDOffset: int64(i), AutoIDStride: int64(len(specs))})
		specs[i].Primary = kdbtest.Serve(t, &kdb.Server{DB: db})
	}
	coord, err := shard.Dial(&shard.Map{Epoch: 7, Shards: specs})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	addr := kdbtest.Serve(t, &kdb.Server{Backend: coord, Role: "coordinator"})
	store, err := schema.Open("shard://" + strings.TrimPrefix(addr, "kdb://"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := New(store)
	defer srv.Close()
	st := getHealth(t, srv)
	if st.Role != "primary" || st.Epoch != 7 || st.AppliedLSN == 0 {
		t.Errorf("health = %+v, want a primary at epoch 7 past its DDL", st)
	}
	if st.ReplLagLSN != 0 || st.ReplLagSeconds != 0 || len(st.Replicas) != 0 {
		t.Errorf("replica-less shards report lag: %+v", st)
	}
}
