package schema

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/kdb"
	"repro/internal/kdb/kdbtest"
	"repro/internal/telemetry"
)

// stubConn fakes a remote store: canned responses for the trace system
// tables (as a server in another process would produce) or a hard error
// (as a pre-tracing server would).
type stubConn struct {
	rows *kdb.Rows
	err  error
}

func (c *stubConn) Query(query string, args ...any) (*kdb.Rows, error) {
	if c.err != nil {
		return nil, c.err
	}
	return c.rows, nil
}
func (c *stubConn) QueryTraced(_ telemetry.TraceContext, query string, args ...any) (*kdb.Rows, error) {
	return c.Query(query, args...)
}
func (c *stubConn) QueryBatch(_ telemetry.TraceContext, stmts []kdb.Stmt) ([]*kdb.Rows, error) {
	var out []*kdb.Rows
	for _, st := range stmts {
		rows, err := c.Query(st.SQL, st.Args...)
		if err != nil {
			return out, err
		}
		out = append(out, rows)
	}
	return out, nil
}
func (c *stubConn) Exec(query string, args ...any) (kdb.Result, error) { return kdb.Result{}, nil }
func (c *stubConn) ExecTraced(_ telemetry.TraceContext, query string, args ...any) (kdb.Result, error) {
	return c.Exec(query, args...)
}
func (c *stubConn) QueryRow(query string, args ...any) ([]any, error) { return nil, kdb.ErrNoRows }
func (c *stubConn) LSN() int64                                        { return 0 }
func (c *stubConn) Tables() []string                                  { return nil }
func (c *stubConn) Close() error                                      { return nil }

func resetTraces(t *testing.T) {
	t.Helper()
	t.Cleanup(func() { telemetry.Traces.Reset() })
	telemetry.Traces.Reset()
}

func TestSlowQueriesUnionsStoreAndLocalRing(t *testing.T) {
	resetTraces(t)
	began := time.Date(2026, 8, 8, 9, 0, 0, 0, time.UTC)
	// The store knows two traces; one of them is also in the local ring
	// (this node recorded the root) and must not appear twice.
	store := &stubConn{rows: kdb.NewRows(
		[]string{"trace_id", "sql", "node", "began", "seconds", "rows"},
		[][]any{
			{"t-shared", "SELECT a", "shard-0", began.Format(time.RFC3339Nano), 2.0, int64(4)},
			{"t-remote", "SELECT b", "shard-1", began.Format(time.RFC3339Nano), 1.0, int64(1)},
		})}
	telemetry.Traces.RecordSlow(telemetry.SlowQuery{
		TraceID: "t-shared", SQL: "SELECT a", Node: "coordinator", Start: began, Seconds: 2.0, Rows: 4})
	telemetry.Traces.RecordSlow(telemetry.SlowQuery{
		TraceID: "t-local", SQL: "SELECT c", Node: "coordinator", Start: began, Seconds: 3.0, Rows: 2})

	got := SlowQueries(store, 0)
	if len(got) != 3 {
		t.Fatalf("union = %+v", got)
	}
	// Slowest first.
	if got[0].TraceID != "t-local" || got[1].TraceID != "t-shared" || got[2].TraceID != "t-remote" {
		t.Fatalf("order = %s %s %s", got[0].TraceID, got[1].TraceID, got[2].TraceID)
	}
	// The store's copy won the dedup (it was added first).
	if got[1].Node != "shard-0" {
		t.Fatalf("dedup kept the wrong copy: %+v", got[1])
	}
	if limited := SlowQueries(store, 2); len(limited) != 2 || limited[0].TraceID != "t-local" {
		t.Fatalf("limit = %+v", limited)
	}
}

func TestSlowQueriesDegradesToLocalRing(t *testing.T) {
	resetTraces(t)
	telemetry.Traces.RecordSlow(telemetry.SlowQuery{TraceID: "t1", SQL: "SELECT x", Seconds: 1})
	old := &stubConn{err: fmt.Errorf("kdb: unknown table __slow_queries")}
	got := SlowQueries(old, 0)
	if len(got) != 1 || got[0].TraceID != "t1" {
		t.Fatalf("degraded result = %+v", got)
	}
	if got := SlowQueries(nil, 0); len(got) != 1 {
		t.Fatalf("nil-conn result = %+v", got)
	}
}

func TestTraceSpansUnionsAndOrders(t *testing.T) {
	resetTraces(t)
	began := time.Date(2026, 8, 8, 9, 0, 0, 0, time.UTC)
	// Store holds the remote child hop; the local ring holds the root.
	store := &stubConn{rows: kdb.NewRows(
		[]string{"span_id", "parent_id", "name", "node", "began", "seconds", "sql", "attrs"},
		[][]any{
			{"s-child", "s-root", "server.query", "shard-0",
				began.Add(time.Millisecond).Format(time.RFC3339Nano), 0.5, "", "rows=4 path=scan"},
			{"s-root", "", "coordinator.scatter", "coordinator",
				began.Format(time.RFC3339Nano), 1.0, "SELECT a", "fanout=2"},
		})}
	telemetry.Traces.Record(telemetry.SpanRecord{
		TraceID: "t1", SpanID: "s-root", Name: "coordinator.scatter", Node: "coordinator",
		Start: began, Seconds: 1.0, SQL: "SELECT a"})

	got := TraceSpans(store, "t1")
	if len(got) != 2 {
		t.Fatalf("spans = %+v", got)
	}
	// Ordered by start: root first, then the child.
	if got[0].SpanID != "s-root" || got[1].SpanID != "s-child" {
		t.Fatalf("order = %s %s", got[0].SpanID, got[1].SpanID)
	}
	if got[1].ParentID != "s-root" || got[1].Node != "shard-0" {
		t.Fatalf("child = %+v", got[1])
	}
	// The attrs column round-trips into structured attrs.
	if got[1].AttrsText() != "rows=4 path=scan" {
		t.Fatalf("attrs = %q", got[1].AttrsText())
	}
	if spans := TraceSpans(&stubConn{err: fmt.Errorf("old server")}, "t1"); len(spans) != 1 {
		t.Fatalf("degraded spans = %+v", spans)
	}
}

// A failed statement's error text crosses the __trace_spans attrs column
// whole: the hop's "error=kdb: ..." used to read back as "error=kdb:"
// because attrs were split on whitespace.
func TestTraceSpansKeepErrorText(t *testing.T) {
	resetTraces(t)
	telemetry.SetTracing(true)
	t.Cleanup(func() { telemetry.SetTracing(false) })
	store, err := Open(kdbtest.Serve(t, &kdb.Server{DB: kdbtest.MemDB(t, kdb.DBOptions{})}))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	root := telemetry.StartHop(telemetry.TraceContext{}, "test")
	_, qerr := store.DB.QueryTraced(root.Context(), "SELECT * FROM no_such_table")
	root.End()
	if qerr == nil {
		t.Fatal("query against a missing table succeeded")
	}
	failed := 0
	for _, s := range TraceSpans(store.DB, root.TraceID()) {
		for _, a := range s.Attrs {
			if a.Key != "error" {
				continue
			}
			failed++
			if !strings.Contains(a.Value, " ") || !strings.Contains(qerr.Error(), a.Value) {
				t.Errorf("span %q error attr = %q, want the whole text of %q", s.Name, a.Value, qerr)
			}
		}
	}
	if failed == 0 {
		t.Fatal("no span of the failed statement carries an error attr")
	}
}
