package shard

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/kdb"
	"repro/internal/repl"
	"repro/internal/telemetry"
)

func resetTracing(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		telemetry.SetSlowQueryThreshold(0)
		telemetry.SetTracing(false)
		telemetry.SetTraceNode("")
		telemetry.Traces.Reset()
	})
	telemetry.Traces.Reset()
}

// tracedCluster is the full deployment of the acceptance scenario: every
// shard is a wire-served primary fronted by a repl.Router with one (wire-
// served) read replica, and a Coordinator scatters across the routers.
func tracedCluster(t *testing.T, n int) *Coordinator {
	t.Helper()
	var conns []kdb.Conn
	for i := 0; i < n; i++ {
		db, err := kdb.OpenWithOptions("", kdb.DBOptions{AutoIDOffset: int64(i), AutoIDStride: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		srv := &kdb.Server{DB: db, Advertise: fmt.Sprintf("shard-%d", i)}
		l, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		primary, err := kdb.Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		// The "replica" dials the same server: trivially caught up, which
		// keeps the router on its replica path without running a follower.
		replica, err := kdb.Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { replica.Close() })
		conns = append(conns, repl.NewRouter(primary, replica))
	}
	coord, err := New(conns...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord
}

// TestTracedScatterAcrossRouters is the acceptance scenario: one query
// through a sharded store whose shards sit behind replica routers must
// produce a single trace whose span tree shows the coordinator hop, the
// per-shard hops, the router's replica choice, and the server/engine work
// — with per-hop row counts — and the trace must be discoverable through
// both the slow-query log and the __slow_queries system table.
func TestTracedScatterAcrossRouters(t *testing.T) {
	resetTracing(t)
	telemetry.SetTraceNode("coordinator")
	coord := tracedCluster(t, 2)

	if _, err := coord.Exec("CREATE TABLE ev (id INTEGER PRIMARY KEY, v INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		if _, err := coord.Exec("INSERT INTO ev (id, v) VALUES (?, ?)", int64(i), int64(i*10)); err != nil {
			t.Fatal(err)
		}
	}

	telemetry.SetSlowQueryThreshold(time.Nanosecond)
	rows, err := coord.Query("SELECT id, v FROM ev")
	if err != nil {
		t.Fatal(err)
	}
	telemetry.SetSlowQueryThreshold(0) // freeze the log before verifying
	if rows.Len() != 8 {
		t.Fatalf("rows = %d", rows.Len())
	}

	// The scatter root landed in the slow log.
	var traceID string
	for _, q := range telemetry.Traces.SlowQueries() {
		if q.SQL == "SELECT id, v FROM ev" {
			traceID = q.TraceID
			if q.Rows != 8 || q.Node != "coordinator" {
				t.Fatalf("slow entry = %+v", q)
			}
		}
	}
	if traceID == "" {
		t.Fatalf("scatter missing from slow log: %+v", telemetry.Traces.SlowQueries())
	}

	// One trace, every hop of the stack, parent links intact.
	spans := telemetry.Traces.Spans(traceID)
	byName := map[string][]telemetry.SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	root := byName["coordinator.scatter"]
	if len(root) != 1 || root[0].ParentID != "" {
		t.Fatalf("scatter root = %+v", root)
	}
	if got := root[0].AttrsText(); !strings.Contains(got, "fanout=2") || !strings.Contains(got, "rows=8") {
		t.Fatalf("root attrs = %q", got)
	}
	for _, name := range []string{"shard 0", "shard 1"} {
		ss := byName[name]
		if len(ss) != 1 || ss[0].ParentID != root[0].SpanID {
			t.Fatalf("%s spans = %+v", name, ss)
		}
		if !strings.Contains(ss[0].AttrsText(), "rows=") {
			t.Fatalf("%s has no row count: %+v", name, ss[0])
		}
	}
	if got := byName["router.query"]; len(got) != 2 {
		t.Fatalf("router.query spans = %+v", got)
	} else {
		for _, s := range got {
			if !strings.Contains(s.AttrsText(), `target="replica 0"`) {
				t.Fatalf("router did not choose the replica: %+v", s)
			}
		}
	}
	if got := byName["rpc.query"]; len(got) != 2 {
		t.Fatalf("rpc.query spans = %+v", got)
	}
	servers := byName["server.query"]
	if len(servers) != 2 {
		t.Fatalf("server.query spans = %+v", servers)
	}
	nodes := map[string]bool{}
	for _, s := range servers {
		nodes[s.Node] = true
	}
	if !nodes["shard-0"] || !nodes["shard-1"] {
		t.Fatalf("server nodes = %v", nodes)
	}
	engine := byName["db.select"]
	if len(engine) != 2 {
		t.Fatalf("db.select spans = %+v", engine)
	}
	var engineRows int
	for _, s := range engine {
		var n int
		if _, err := fmt.Sscanf(attrValue(s, "rows"), "%d", &n); err != nil {
			t.Fatalf("db.select rows attr: %+v", s)
		}
		engineRows += n
	}
	if engineRows != 8 {
		t.Fatalf("engine rows sum = %d, want 8", engineRows)
	}

	// The same trace is queryable as a table — and the scatter path itself
	// serves it, shard stores being the only reachable peers.
	got, err := coord.Query("SELECT trace_id FROM __slow_queries WHERE trace_id = ?", traceID)
	if err != nil {
		t.Fatalf("__slow_queries through coordinator: %v", err)
	}
	if got.Len() == 0 {
		t.Fatal("__slow_queries scatter returned no rows for the trace")
	}
	got, err = coord.Query("SELECT name FROM __trace_spans WHERE trace_id = ?", traceID)
	if err != nil {
		t.Fatalf("__trace_spans through coordinator: %v", err)
	}
	if got.Len() == 0 {
		t.Fatal("__trace_spans scatter returned no rows for the trace")
	}
}

func attrValue(s telemetry.SpanRecord, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestConcurrentTracedQueries hammers the traced read and write paths
// through the coordinator (and thus the routers and wire clients beneath
// it) from many goroutines — the race gate for the tracing code.
func TestConcurrentTracedQueries(t *testing.T) {
	resetTracing(t)
	telemetry.SetTracing(true)
	coord := tracedCluster(t, 2)
	if _, err := coord.Exec("CREATE TABLE ev (id INTEGER PRIMARY KEY, v INTEGER)"); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*10)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				id := int64(w*100 + i + 1)
				if _, err := coord.Exec("INSERT INTO ev (id, v) VALUES (?, ?)", id, id); err != nil {
					errs <- err
					return
				}
				if _, err := coord.Query("SELECT COUNT(*) FROM ev"); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every query traced: at least one scatter root per worker iteration.
	var scatters int
	for _, s := range telemetry.Traces.AllSpans() {
		if s.Name == "coordinator.scatter" {
			scatters++
		}
	}
	if scatters < workers*5 {
		t.Fatalf("scatter spans = %d, want >= %d", scatters, workers*5)
	}
}
