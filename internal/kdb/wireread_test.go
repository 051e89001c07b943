package kdb

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// The "read" verb: the SELECTs of one read step in one request, answered by
// one node in one answer, a line per statement.

// readStmts is a step over wireRows' table w: every value kind, no rows, and
// an argument of each kind.
var readStmts = []Stmt{
	{SQL: "SELECT id, n, r, s FROM w ORDER BY id"},
	{SQL: "SELECT s FROM w WHERE id = ?", Args: []any{int64(1)}},
	{SQL: "SELECT id FROM w WHERE s = ?", Args: []any{"nobody"}},
	{SQL: "SELECT COUNT(*) FROM w WHERE r > ?", Args: []any{1.0}},
}

// oneByOne answers stmts as separate queries, the reference for a step.
func oneByOne(t *testing.T, c interface {
	Query(string, ...any) (*Rows, error)
}, stmts []Stmt) []*Rows {
	t.Helper()
	var out []*Rows
	for _, st := range stmts {
		rows, err := c.Query(st.SQL, st.Args...)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rows)
	}
	return out
}

func sameAnswers(a, b []*Rows) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Columns, b[i].Columns) || fmt.Sprintf("%#v", a[i].All()) != fmt.Sprintf("%#v", b[i].All()) {
			return false
		}
	}
	return true
}

// TestWireReadEqualsQueries: a step answers what its statements answer one
// by one, embedded and over the wire, in one request.
func TestWireReadEqualsQueries(t *testing.T) {
	db, addr := wireFixture(t)
	r, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want := oneByOne(t, db, readStmts)
	local, err := db.QueryBatch(telemetry.TraceContext{}, readStmts)
	if err != nil || !sameAnswers(local, want) {
		t.Fatalf("DB.QueryBatch = %v, %v; want the statements' answers", local, err)
	}
	requests := metServerRequests.Value()
	got, err := r.QueryBatch(telemetry.TraceContext{}, readStmts)
	if err != nil || !sameAnswers(got, want) {
		t.Fatalf("Remote.QueryBatch = %v, %v; want the statements' answers", got, err)
	}
	if n := metServerRequests.Value() - requests; n != 1 {
		t.Errorf("a step of %d statements took %d requests, want 1", len(readStmts), n)
	}
	if r.noRead.Load() {
		t.Error("a current server was taken for one without the read verb")
	}
	if got, err := r.QueryBatch(telemetry.TraceContext{}, nil); err != nil || len(got) != 0 {
		t.Errorf("an empty step = %v, %v", got, err)
	}
}

// TestWireReadLegacyServer: against a server that answers the verb with
// `unknown wire op "read"`, the statements go as queries, with the same rows,
// and the connection remembers it.
func TestWireReadLegacyServer(t *testing.T) {
	db := memDB(t)
	defer db.Close()
	wireRows(t, db)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	legacyServe(t, l, db)
	r, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want := oneByOne(t, db, readStmts)
	for round := 0; round < 2; round++ {
		got, err := r.QueryBatch(telemetry.TraceContext{}, readStmts)
		if err != nil || !sameAnswers(got, want) {
			t.Fatalf("round %d through a legacy server: %v, %v", round, got, err)
		}
		if !r.noRead.Load() {
			t.Fatalf("round %d: the client did not remember that this server has no read verb", round)
		}
	}
	// A failing statement still fails the step, after the ones before it.
	got, err := r.QueryBatch(telemetry.TraceContext{}, []Stmt{readStmts[0], {SQL: "SELECT x FROM nosuch"}})
	if err == nil || !strings.Contains(err.Error(), "nosuch") || len(got) != 1 {
		t.Errorf("failing step through a legacy server = %d answers, %v", len(got), err)
	}
}

// TestWireReadErrorEndsAnswer: the answer ends at its first error line, so
// the next request on the connection gets its own answer, and the client
// neither redials nor retries.
func TestWireReadErrorEndsAnswer(t *testing.T) {
	_, addr := wireFixture(t)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	in := bufio.NewReader(c)
	io.WriteString(c, `{"op":"read","stmts":[{"sql":"SELECT n FROM w WHERE id = 1"},{"sql":"SELECT nope FROM w"},{"sql":"SELECT 1 FROM w"}]}`+"\n")
	io.WriteString(c, `{"op":"query","sql":"SELECT COUNT(*) FROM w"}`+"\n")
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var lines []string
	for i := 0; i < 3; i++ {
		line, err := in.ReadString('\n')
		if err != nil {
			t.Fatalf("after %q: %v", lines, err)
		}
		lines = append(lines, line)
	}
	want := []string{
		`{"cols":["n"],"rows":[[{"k":"i","v":"7"}]]}` + "\n",
		`{"err":"kdb: unknown column nope"}` + "\n",
		`{"cols":["count(*)"],"rows":[[{"k":"i","v":"2"}]]}` + "\n",
	}
	if !reflect.DeepEqual(lines, want) {
		t.Fatalf("answers\n got %q\nwant %q", lines, want)
	}

	r, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	conn := r.conn
	got, err := r.QueryBatch(telemetry.TraceContext{}, []Stmt{readStmts[1], {SQL: "SELECT nope FROM w"}, readStmts[0]})
	if err == nil || err.Error() != "kdb: unknown column nope" || len(got) != 1 || got[0].Len() != 1 {
		t.Fatalf("step failing at its second statement = %d answers, %v", len(got), err)
	}
	if rows, err := r.Query("SELECT COUNT(*) FROM w"); err != nil || fmt.Sprint(rows.All()) != "[[2]]" {
		t.Fatalf("the connection after a failed step: %v, %v", rows, err)
	}
	if r.conn != conn {
		t.Error("a failed step dropped a healthy connection")
	}
}

// TestWireReadRetriesOnce: a step is idempotent, so a broken connection is
// redialed and the step sent again.
func TestWireReadRetriesOnce(t *testing.T) {
	db, addr := wireFixture(t)
	r, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.conn.Close() // the transport breaks under the client
	got, err := r.QueryBatch(telemetry.TraceContext{}, readStmts)
	if err != nil || !sameAnswers(got, oneByOne(t, db, readStmts)) {
		t.Fatalf("step over a broken connection = %v, %v", got, err)
	}
}

// TestReadStepSpans: a traced step is an rpc.read span with the server's
// server.read under it, and one db.select per statement under that.
func TestReadStepSpans(t *testing.T) {
	resetTracing(t)
	telemetry.SetTracing(true)
	db := memDB(t)
	defer db.Close()
	wireRows(t, db)
	r, err := Dial(startServerFull(t, &Server{DB: db}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	telemetry.Traces.Reset()
	root := telemetry.StartHop(telemetry.TraceContext{}, "client")
	if _, err := r.QueryBatch(root.Context(), readStmts); err != nil {
		t.Fatal(err)
	}
	root.End()
	byName := map[string][]telemetry.SpanRecord{}
	for _, s := range telemetry.Traces.Spans(root.TraceID()) {
		byName[s.Name] = append(byName[s.Name], s)
	}
	if len(byName["rpc.read"]) != 1 || len(byName["server.read"]) != 1 || len(byName["db.select"]) != len(readStmts) {
		t.Fatalf("spans %v", byName)
	}
	rpc, srv := byName["rpc.read"][0], byName["server.read"][0]
	if rpc.ParentID != root.Context().SpanID || srv.ParentID != rpc.SpanID {
		t.Fatalf("span chain broken: %+v", byName)
	}
	for _, s := range []telemetry.SpanRecord{rpc, srv} {
		if !strings.Contains(s.AttrsText(), fmt.Sprintf("statements=%d", len(readStmts))) {
			t.Errorf("%s attrs = %q", s.Name, s.AttrsText())
		}
	}
	for _, s := range byName["db.select"] {
		if s.ParentID != srv.SpanID || !strings.Contains(s.AttrsText(), "path=") {
			t.Errorf("db.select %q: parent %s, attrs %q", s.SQL, s.ParentID, s.AttrsText())
		}
	}
}

// checkReadScan holds the read scanner to the structs: whenever it accepts a
// line, encoding/json and decodeStmts read the same request from it.
func checkReadScan(t testing.TB, line []byte) bool {
	t.Helper()
	req, stmts, ok := scanStmtsRequest(line, "read")
	if !ok {
		return false
	}
	var want wireRequest
	if err := json.Unmarshal(line, &want); err != nil {
		t.Fatalf("read scanner accepted %q, encoding/json rejects it: %v", line, err)
	}
	wantStmts, err := decodeStmts(want.Stmts)
	if err != nil {
		t.Fatalf("read scanner accepted %q, decodeStmts rejects it: %v", line, err)
	}
	want.Stmts = nil
	if !reflect.DeepEqual(req, want) || len(stmts) != len(wantStmts) {
		t.Fatalf("scanStmtsRequest(%q, read) = %+v with %d statements, encoding/json says %+v with %d", line, req, len(stmts), want, len(wantStmts))
	}
	for j := range stmts {
		if stmts[j].sql != wantStmts[j].sql || !sameValues(stmts[j].args, wantStmts[j].args) {
			t.Fatalf("scanStmtsRequest(%q, read) statement %d = %+v, encoding/json says %+v", line, j, stmts[j], wantStmts[j])
		}
		for _, a := range stmts[j].args {
			if _, ok := a.(refArg); ok {
				t.Fatalf("read scanner took a reference cell in %q", line)
			}
		}
	}
	return true
}

// FuzzWireRead holds the read scanner to the structs on fuzzed lines, and the
// server's answer to whatever either reads to "a line per statement, ending
// at the first error".
func FuzzWireRead(f *testing.F) {
	for _, seed := range []string{
		`{"op":"read","stmts":[{"sql":"SELECT n FROM p WHERE id = ?","args":[{"k":"i","v":"1"}]},{"sql":"SELECT COUNT(*) FROM p"}]}`,
		`{"op":"read","stmts":[{"sql":"SELECT n FROM p"}],"trace_id":"cafe","span_id":"beef"}`,
		`{"op":"read","stmts":[{"sql":"SELECT n FROM p WHERE n = ?","args":[{"k":"ref","v":"0"}]}]}`,
		`{"op":"read","key":7,"stmts":[{"sql":"SELECT n FROM p"}]}`,
		`{"op":"read","stmts":[{"sql":"SELECT nope FROM p"},{"sql":"SELECT n FROM p"}]}`,
		`{"op":"read"}`, `{"op":"read","stmts":[]}`, `{"stmts":[{"sql":"SELECT n FROM p"}],"op":"read"}`,
		`{"op":"read","stmts":[{"sql":"SELECT r FROM p WHERE r > ?","args":[{"k":"r","v":"1.50"}]}]}`,
	} {
		f.Add([]byte(seed))
	}
	db, err := Open("")
	if err != nil {
		f.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE p (id INTEGER PRIMARY KEY, n INTEGER, r REAL)"); err != nil {
		f.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO p (n, r) VALUES (1, 0.5), (2, 2.5)"); err != nil {
		f.Fatal(err)
	}
	srv := &Server{DB: db}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkReadScan(t, line)
		req, ok := decodeRequest(line)
		if !ok || req.Op != "read" || req.err != nil {
			return
		}
		answer := strings.SplitAfter(string(srv.read(nil, &req)), "\n")
		if answer[len(answer)-1] != "" {
			t.Fatalf("answer to %q does not end a line: %q", line, answer)
		}
		answer = answer[:len(answer)-1]
		n := len(answer)
		if n == 0 || n > max(len(req.stmts), 1) {
			t.Fatalf("answer to %q of %d statements has %d lines", line, len(req.stmts), n)
		}
		for i, a := range answer {
			resp, _, scanned := scanStatementResponse([]byte(strings.TrimSuffix(a, "\n")))
			if !scanned && json.Unmarshal([]byte(a), &resp) != nil {
				t.Fatalf("answer line %d to %q is not a response: %q", i, line, a)
			}
			last := i == n-1
			if resp.Err != "" && !last || resp.Err == "" && last && n < len(req.stmts) || resp.Err == "" && len(req.stmts) == 0 {
				t.Fatalf("answer to %q of %d statements: %q", line, len(req.stmts), answer)
			}
		}
	})
}
