package kdb

import (
	"bufio"
	"encoding/json"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

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

// TestWireRequestOmitsTraceFieldsWhenUntraced pins the compatibility
// contract: an untraced request marshals to exactly the bytes an old
// client would send, so old servers see nothing new.
func TestWireRequestOmitsTraceFieldsWhenUntraced(t *testing.T) {
	data, err := json.Marshal(wireRequest{Op: "query", SQL: "SELECT 1"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "trace") || strings.Contains(string(data), "span") {
		t.Fatalf("untraced request leaks trace fields: %s", data)
	}
}

// legacyRequest is the wire request as an old peer knew it: no trace
// fields. Decoding a new request into it must succeed (encoding/json drops
// unknown fields), which is the whole backward-compatibility story.
type legacyRequest struct {
	Op   string   `json:"op"`
	SQL  string   `json:"sql,omitempty"`
	Args []walArg `json:"args,omitempty"`
}

// TestWireTraceCompatNewClientOldServer runs a traced client against a
// simulated pre-tracing server: the request carries trace fields, the old
// decoder drops them, and the query succeeds — degradation means losing
// server-side spans, never an error.
func TestWireTraceCompatNewClientOldServer(t *testing.T) {
	resetTracing(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sawTraceID := make(chan bool, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Peek at the raw bytes first to prove the trace context was
		// actually on the wire, then decode as an old server would.
		var raw json.RawMessage
		dec := json.NewDecoder(bufio.NewReader(conn))
		if err := dec.Decode(&raw); err != nil {
			return
		}
		sawTraceID <- strings.Contains(string(raw), `"trace_id"`)
		var req legacyRequest
		if err := json.Unmarshal(raw, &req); err != nil {
			json.NewEncoder(conn).Encode(wireResponse{Err: "legacy decode: " + err.Error()})
			return
		}
		json.NewEncoder(conn).Encode(wireResponse{Columns: []string{"one"}})
	}()

	r, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tc := telemetry.TraceContext{TraceID: "cafecafecafecafe", SpanID: "beefbeef"}
	rows, err := r.QueryTraced(tc, "SELECT 1")
	if err != nil {
		t.Fatalf("traced query against legacy server: %v", err)
	}
	if len(rows.Columns) != 1 || rows.Columns[0] != "one" {
		t.Fatalf("columns = %v", rows.Columns)
	}
	select {
	case saw := <-sawTraceID:
		if !saw {
			t.Error("traced request did not carry trace_id on the wire")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("legacy server never saw the request")
	}
}

// TestWireTraceCompatOldClientNewServer sends a hand-rolled pre-tracing
// request (no trace fields) to a current server: it must be served
// normally, not rejected, and must not invent spans when tracing is off.
func TestWireTraceCompatOldClientNewServer(t *testing.T) {
	resetTracing(t)
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t (id, v) VALUES (1, 'a')"); err != nil {
		t.Fatal(err)
	}
	addr := startServerFull(t, &Server{DB: db})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := json.NewEncoder(conn).Encode(legacyRequest{Op: "query", SQL: "SELECT v FROM t WHERE id = 1"}); err != nil {
		t.Fatal(err)
	}
	var resp wireResponse
	if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" {
		t.Fatalf("legacy request rejected: %s", resp.Err)
	}
	if len(resp.Rows) != 1 || len(resp.Columns) != 1 || resp.Columns[0] != "v" {
		t.Fatalf("response = %+v", resp)
	}
	if got := telemetry.Traces.AllSpans(); len(got) != 0 {
		t.Fatalf("untraced legacy request recorded spans: %+v", got)
	}
}

// TestTracedQueryThroughServer checks the span chain a remote query
// produces when client and server share a process: the client's rpc hop,
// the server's dispatch hop, and the engine's select hop form one linked
// trace.
func TestTracedQueryThroughServer(t *testing.T) {
	resetTracing(t)
	telemetry.SetTracing(true)
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t (id, v) VALUES (1, 'a'), (2, 'b')"); err != nil {
		t.Fatal(err)
	}
	addr := startServerFull(t, &Server{DB: db, Advertise: "db-1"})
	r, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	telemetry.Traces.Reset() // drop setup spans

	root := telemetry.StartHop(telemetry.TraceContext{}, "client")
	rows, err := r.QueryTraced(root.Context(), "SELECT v FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 {
		t.Fatalf("rows = %d", rows.Len())
	}
	root.End()

	spans := telemetry.Traces.Spans(root.TraceID())
	byName := map[string]telemetry.SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	for _, name := range []string{"client", "rpc.query", "server.query", "db.select"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("trace missing %q span, have %+v", name, spans)
		}
	}
	if byName["rpc.query"].ParentID != byName["client"].SpanID ||
		byName["server.query"].ParentID != byName["rpc.query"].SpanID ||
		byName["db.select"].ParentID != byName["server.query"].SpanID {
		t.Fatalf("span chain broken: %+v", spans)
	}
	if byName["server.query"].Node != "db-1" {
		t.Fatalf("server span node = %q, want advertise address", byName["server.query"].Node)
	}
	if got := byName["db.select"].AttrsText(); !strings.Contains(got, "rows=2") || !strings.Contains(got, "path=scan") {
		t.Fatalf("db.select attrs = %q", got)
	}
	if got := byName["rpc.query"].AttrsText(); !strings.Contains(got, "rows=2") {
		t.Fatalf("rpc.query attrs = %q", got)
	}
}

// TestBuiltinTraceTables exercises __slow_queries and __trace_spans as
// real tables: projection, WHERE, ORDER BY, and aggregates all work, with
// no provider attached.
func TestBuiltinTraceTables(t *testing.T) {
	resetTracing(t)
	began := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	telemetry.Traces.RecordSlow(telemetry.SlowQuery{
		TraceID: "t1", SQL: "SELECT slow", Node: "primary", Start: began, Seconds: 2.5, Rows: 10})
	telemetry.Traces.RecordSlow(telemetry.SlowQuery{
		TraceID: "t2", SQL: "SELECT slower", Node: "primary", Start: began.Add(time.Second), Seconds: 5, Rows: 1})
	telemetry.Traces.Record(telemetry.SpanRecord{
		TraceID: "t1", SpanID: "s1", Name: "db.select", Node: "primary", Start: began, Seconds: 2.5,
		SQL: "SELECT slow", Attrs: []telemetry.Attr{{Key: "rows", Value: "10"}}})
	telemetry.Traces.Record(telemetry.SpanRecord{
		TraceID: "t2", SpanID: "s2", Name: "db.select", Node: "primary", Start: began, Seconds: 5})

	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	rows, err := db.Query("SELECT trace_id, sql, seconds, rows FROM __slow_queries ORDER BY seconds DESC")
	if err != nil {
		t.Fatalf("__slow_queries: %v", err)
	}
	all := rows.All()
	if len(all) != 2 || all[0][0] != "t2" || all[0][2] != 5.0 || all[1][3] != int64(10) {
		t.Fatalf("slow rows = %v", all)
	}

	rows, err = db.Query("SELECT COUNT(*) FROM __slow_queries WHERE seconds > ?", 3.0)
	if err != nil {
		t.Fatalf("aggregate over __slow_queries: %v", err)
	}
	if got := rows.All(); len(got) != 1 || got[0][0] != int64(1) {
		t.Fatalf("count = %v", got)
	}

	rows, err = db.Query("SELECT span_id, name, attrs FROM __trace_spans WHERE trace_id = ?", "t1")
	if err != nil {
		t.Fatalf("__trace_spans: %v", err)
	}
	if got := rows.All(); len(got) != 1 || got[0][0] != "s1" || got[0][2] != "rows=10" {
		t.Fatalf("span rows = %v", got)
	}

	// hops counts the retained spans per slow query.
	rows, err = db.Query("SELECT hops FROM __slow_queries WHERE trace_id = ?", "t1")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.All(); len(got) != 1 || got[0][0] != int64(1) {
		t.Fatalf("hops = %v", got)
	}
}

// TestSlowQueryLogEndToEnd arms the threshold and checks that a real
// query lands in the log and is then visible through the system table.
func TestSlowQueryLogEndToEnd(t *testing.T) {
	resetTracing(t)
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t (id) VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	telemetry.SetSlowQueryThreshold(time.Nanosecond)
	if _, err := db.Query("SELECT id FROM t"); err != nil {
		t.Fatal(err)
	}
	telemetry.SetSlowQueryThreshold(0) // freeze the log before inspecting it

	var found bool
	for _, q := range telemetry.Traces.SlowQueries() {
		if q.SQL == "SELECT id FROM t" && q.Rows == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("slow log missing the query: %+v", telemetry.Traces.SlowQueries())
	}
	rows, err := db.Query("SELECT sql FROM __slow_queries WHERE sql = ?", "SELECT id FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 {
		t.Fatalf("__slow_queries rows = %v", rows.All())
	}
}

// BenchmarkSlowQueriesTable reads __slow_queries with both rings full (256
// slow entries over 4,096 spans) — what /traces and /v1/traces issue on
// every hit. The hops column must cost one pass over the span ring, not
// one per slow query.
func BenchmarkSlowQueriesTable(b *testing.B) {
	b.Cleanup(telemetry.Traces.Reset)
	telemetry.Traces.Reset()
	began := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	for i := 0; i < 4096; i++ {
		telemetry.Traces.Record(telemetry.SpanRecord{
			TraceID: "t" + strconv.Itoa(i%256), SpanID: strconv.Itoa(i), Name: "db.select", Start: began})
	}
	for i := 0; i < 256; i++ {
		telemetry.Traces.RecordSlow(telemetry.SlowQuery{
			TraceID: "t" + strconv.Itoa(i), SQL: "SELECT slow", Start: began, Seconds: float64(i)})
	}
	db, err := Open("")
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := db.Query("SELECT trace_id, hops FROM __slow_queries")
		if err != nil {
			b.Fatal(err)
		}
		if all := rows.All(); len(all) != 256 || all[0][1] != int64(16) {
			b.Fatalf("rows = %d, hops = %v", len(all), all[0][1])
		}
	}
}
