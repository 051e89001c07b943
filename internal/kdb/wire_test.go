package kdb

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

// Framing and mixed-version behaviour of the kdb:// exchange, over real
// loopback connections. "Legacy" below means a peer that speaks only
// encoding/json over the structs, one value after another on the socket —
// what both ends of this protocol were before codec.go.

// rawExchange sends line (as given: the caller decides about the newline)
// and returns the server's response line.
func rawExchange(t *testing.T, addr, line string, halfClose bool) string {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, line); err != nil {
		t.Fatal(err)
	}
	if halfClose {
		if err := c.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := bufio.NewReader(c).ReadString('\n')
	if err != nil {
		t.Fatalf("no response to %q: %v", line, err)
	}
	return resp
}

func wireFixture(t *testing.T) (*DB, string) {
	t.Helper()
	db, addr := startServer(t)
	t.Cleanup(func() { db.Close() })
	wireRows(t, db)
	return db, addr
}

// wireRows creates table w with the two rows exerciseStatements expects.
func wireRows(t *testing.T, db *DB) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE w (id INTEGER PRIMARY KEY, n INTEGER, r REAL, s TEXT)")
	mustExec(t, db, "INSERT INTO w (n, r, s) VALUES (?, ?, ?)", int64(7), 1.5, "seven <7>")
	mustExec(t, db, "INSERT INTO w (n, r, s) VALUES (?, ?, ?)", nil, nil, "")
}

// TestWireLongLines: a message is one line of any length. A request longer
// than the reader's buffer and a multi-megabyte snapshot response both
// round-trip, and neither end keeps the big buffer afterwards.
func TestWireLongLines(t *testing.T) {
	db, addr := wireFixture(t)
	r, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	long := strings.Repeat("0123456789 <abc> \n", 16*1024) // 288 KiB, grows when escaped
	if _, err := r.Exec("INSERT INTO w (n, s) VALUES (?, ?)", int64(99), long); err != nil {
		t.Fatalf("long request: %v", err)
	}
	row, err := r.QueryRow("SELECT s FROM w WHERE n = ?", int64(99))
	if err != nil || row[0] != long {
		t.Fatalf("long text did not round-trip: err %v", err)
	}
	for i := 0; i < 12; i++ {
		mustExec(t, db, "INSERT INTO w (n, s) VALUES (?, ?)", int64(100+i), long)
	}
	snap, lsn, err := r.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if len(snap) < 3<<20 || lsn != db.LSN() || !bytes.Equal(snap, snapshotBytes(t, db)) {
		t.Fatalf("snapshot of %d bytes at LSN %d does not match the database's (LSN %d)", len(snap), lsn, db.LSN())
	}
	// The next exchange is small again; the megabytes are let go.
	if _, err := r.Status(); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if cap(r.out) > maxScratch || cap(r.in.long) > maxScratch {
		t.Errorf("client kept %d-byte request and %d-byte response buffers past maxScratch", cap(r.out), cap(r.in.long))
	}
}

// TestWireFinalLineWithoutNewline: the last request before the client
// half-closes need not end in a newline.
func TestWireFinalLineWithoutNewline(t *testing.T) {
	_, addr := wireFixture(t)
	want := rawExchange(t, addr, `{"op":"query","sql":"SELECT n FROM w WHERE id = 1"}`+"\n", false)
	got := rawExchange(t, addr, `{"op":"query","sql":"SELECT n FROM w WHERE id = 1"}`, true)
	if got != want || !strings.Contains(got, `"rows":[[{"k":"i","v":"7"}]]`) {
		t.Errorf("unterminated final request answered %q, terminated one %q", got, want)
	}
	// Blank lines between messages are skipped, as a JSON stream decoder
	// skipped the whitespace.
	if got := rawExchange(t, addr, "\n  \n"+`{"op":"tables"}`+"\n", false); got != `{"tables":["w"]}`+"\n" {
		t.Errorf("request after blank lines answered %q", got)
	}
}

// TestWireDeclinedRequestSameAnswer: a request the scanner declines —
// reordered keys, an unknown field, spaces after colons — gets the identical
// bytes back as the canonical spelling of the same request.
func TestWireDeclinedRequestSameAnswer(t *testing.T) {
	_, addr := wireFixture(t)
	cases := []struct{ canonical, variants []string }{
		{[]string{`{"op":"query","sql":"SELECT n, r, s FROM w WHERE n = ?","args":[{"k":"i","v":"7"}]}`}, []string{
			`{"sql":"SELECT n, r, s FROM w WHERE n = ?","args":[{"k":"i","v":"7"}],"op":"query"}`,
			`{"op":"query","sql":"SELECT n, r, s FROM w WHERE n = ?","args":[{"k":"i","v":"7"}],"future_field":{"a":[1,2]}}`,
			`{"op": "query", "sql": "SELECT n, r, s FROM w WHERE n = ?", "args": [{"k": "i", "v": "7"}]}`,
			`{"op":"query","sql":"SELECT n, r, s FROM w WHERE n = ?","args":[{"v":"7","k":"i"}]}`,
		}},
		{[]string{`{"op":"exec","sql":"UPDATE w SET s = ? WHERE n = ?","args":[{"k":"t","v":"same"},{"k":"i","v":"12345"}]}`}, []string{
			`{"args":[{"k":"t","v":"same"},{"k":"i","v":"12345"}],"sql":"UPDATE w SET s = ? WHERE n = ?","op":"exec"}`,
			`{"op":"exec", "sql":"UPDATE w SET s = ? WHERE n = ?","args":[{"k":"t","v":"same"},{"k":"i","v":"12345"}],"x":null}`,
		}},
		{[]string{`{"op":"exec","sql":"NOT SQL"}`}, []string{`{"sql":"NOT SQL","op":"exec"}`, `{"op":"exec","sql":"NOT SQL" }`}},
		{[]string{`{"op":"query","sql":"SELECT n FROM w WHERE n = ?","args":[{"k":"x","v":"7"}]}`}, []string{
			`{"op":"query","args":[{"k":"x","v":"7"}],"sql":"SELECT n FROM w WHERE n = ?"}`,
		}},
	}
	lsnless := func(s string) string { // an exec's answer names its own LSN
		if i := strings.Index(s, `"lsn":`); i >= 0 {
			return s[:i]
		}
		return s
	}
	for _, c := range cases {
		want := rawExchange(t, addr, c.canonical[0]+"\n", false)
		for _, v := range c.variants {
			if got := rawExchange(t, addr, v+"\n", false); lsnless(got) != lsnless(want) {
				t.Errorf("request %s\n answered %s canonical spelling answered %s", v, got, want)
			}
		}
	}
}

// legacyServe answers exec and query on l the way a pre-codec server did:
// a json.Decoder and a json.Encoder over the structs, rows boxed as
// [][]walArg.
func legacyServe(t *testing.T, l net.Listener, db *DB) {
	t.Helper()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				dec, enc := json.NewDecoder(bufio.NewReader(c)), json.NewEncoder(c)
				for {
					var req wireRequest
					if dec.Decode(&req) != nil {
						return
					}
					args, err := decodeArgs(req.Args)
					var resp wireResponse
					switch {
					case err != nil:
						resp.Err = err.Error()
					case req.Op == "exec":
						res, err := db.Exec(req.SQL, args...)
						if err != nil {
							resp.Err = err.Error()
						}
						resp.LastInsertID, resp.RowsAffected, resp.LSN = res.LastInsertID, res.RowsAffected, res.LSN
					case req.Op == "query":
						rows, err := db.Query(req.SQL, args...)
						if err != nil {
							resp.Err = err.Error()
							break
						}
						resp.Columns = rows.Columns
						for _, row := range rows.All() {
							wr, _ := encodeArgs(row)
							resp.Rows = append(resp.Rows, wr)
						}
					default: // "batch" included: the verb is younger than this server
						resp.Err = fmt.Sprintf("kdb: unknown wire op %q", req.Op)
					}
					if enc.Encode(resp) != nil {
						return
					}
				}
			}()
		}
	}()
}

// exerciseStatements drives exec and query with NULL, integer, real and text
// cells, a zero-row result and an application error through c.
func exerciseStatements(t *testing.T, c interface {
	Exec(string, ...any) (Result, error)
	Query(string, ...any) (*Rows, error)
}) {
	t.Helper()
	res, err := c.Exec("INSERT INTO w (n, r, s) VALUES (?, ?, ?)", int64(math.MinInt64), 1e-300, "multi\nline <&> \"q\" \\ \u00e9 \u2028")
	if err != nil || res.LastInsertID != 3 || res.RowsAffected != 1 || res.LSN == 0 {
		t.Fatalf("exec = %+v, %v", res, err)
	}
	rows, err := c.Query("SELECT id, n, r, s FROM w ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]any{
		{int64(1), int64(7), 1.5, "seven <7>"},
		{int64(2), nil, nil, ""},
		{int64(3), int64(math.MinInt64), 1e-300, "multi\nline <&> \"q\" \\ \u00e9 \u2028"},
	}
	if got := rows.All(); !sameRows(got, want) || strings.Join(rows.Columns, ",") != "id,n,r,s" {
		t.Fatalf("query = %v %v, want %v", rows.Columns, got, want)
	}
	rows, err = c.Query("SELECT id, s FROM w WHERE n = ?", int64(-1))
	if err != nil || rows.Len() != 0 || strings.Join(rows.Columns, ",") != "id,s" {
		t.Fatalf("zero-row query = %v rows, columns %v, err %v", rows.Len(), rows.Columns, err)
	}
	if _, err := c.Exec("NOT SQL"); err == nil {
		t.Fatal("application error lost")
	}
	if _, err := c.Query("SELECT COUNT(*) FROM w"); err != nil {
		t.Fatalf("connection unusable after an application error: %v", err)
	}
}

// batchedSave is a unit of work on table w as a save makes them: a parent row
// and two rows naming its id, which nobody knows when they are written. It
// returns the three ids.
func batchedSave(t *testing.T, c Conn) []int64 {
	t.Helper()
	var refs []Ref
	err := Batch(c, func(exec ExecFunc) error {
		parent, err := exec("INSERT INTO w (n, r, s) VALUES (?, ?, ?)", int64(-40), 0.5, "parent <&>")
		if err != nil {
			return err
		}
		refs = append(refs, parent.Ref())
		for _, s := range []string{"child a", "child b\n"} {
			child, err := exec("INSERT INTO w (n, s) VALUES (?, ?)", parent.Ref(), s)
			if err != nil {
				return err
			}
			refs = append(refs, child.Ref())
		}
		return nil
	})
	if err != nil {
		t.Fatalf("batched save: %v", err)
	}
	ids := make([]int64, len(refs))
	for i, ref := range refs {
		ids[i] = ref.ID()
	}
	return ids
}

// TestWireLegacyServerNewClient: this package's client against a server
// that only speaks encoding/json — and knows no "batch": the client hears
// that once, and from then on replays what a batch recorded as the execs it
// would have been, ids filled in from each answer.
func TestWireLegacyServerNewClient(t *testing.T) {
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
	exerciseStatements(t, r)

	reference := memDB(t) // the same history on an embedded database
	defer reference.Close()
	wireRows(t, reference)
	exerciseStatements(t, reference)
	for round := 0; round < 2; round++ {
		got, want := batchedSave(t, r), batchedSave(t, reference)
		if fmt.Sprint(got) != fmt.Sprint(want) || got[0] == 0 {
			t.Errorf("round %d: ids through a legacy server %v, embedded %v", round, got, want)
		}
		if !r.noBatch.Load() {
			t.Error("the client did not remember that this server has no batch verb")
		}
	}
	if !bytes.Equal(snapshotBytes(t, db), snapshotBytes(t, reference)) || r.LSN() != reference.LSN() {
		t.Errorf("the legacy server's database (client saw LSN %d) differs from the embedded one's (LSN %d)", r.LSN(), reference.LSN())
	}
	if !reflect.DeepEqual(shipped(t, db), shipped(t, reference)) {
		t.Error("a replayed batch logged other bytes than the same statements embedded")
	}
}

// legacyClient is a pre-codec client: json.Encoder and json.Decoder over
// the structs on one connection.
type legacyClient struct {
	t   *testing.T
	enc *json.Encoder
	dec *json.Decoder
}

func (c legacyClient) roundTrip(req wireRequest, args []any) (wireResponse, error) {
	c.t.Helper()
	req.Args = mustEncodeArgs(c.t, args)
	if err := c.enc.Encode(req); err != nil {
		c.t.Fatal(err)
	}
	var resp wireResponse
	if err := c.dec.Decode(&resp); err != nil {
		c.t.Fatal(err)
	}
	if resp.Err != "" {
		return resp, wireError{resp.Err}
	}
	return resp, nil
}

func (c legacyClient) Exec(sql string, args ...any) (Result, error) {
	resp, err := c.roundTrip(wireRequest{Op: "exec", SQL: sql}, args)
	return Result{LastInsertID: resp.LastInsertID, RowsAffected: resp.RowsAffected, LSN: resp.LSN}, err
}

func (c legacyClient) Query(sql string, args ...any) (*Rows, error) {
	resp, err := c.roundTrip(wireRequest{Op: "query", SQL: sql}, args)
	rows := &Rows{Columns: resp.Columns}
	for _, wr := range resp.Rows {
		row, derr := decodeArgs(wr)
		if derr != nil {
			c.t.Fatal(derr)
		}
		rows.rows = append(rows.rows, row)
	}
	return rows, err
}

// TestWireLegacyClientNewServer: a client that only speaks encoding/json
// against this package's server.
func TestWireLegacyClientNewServer(t *testing.T) {
	db, addr := wireFixture(t)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	lc := legacyClient{t, json.NewEncoder(c), json.NewDecoder(bufio.NewReader(c))}
	exerciseStatements(t, lc)

	// A batch as the structs spell it, its references as cells of kind "ref".
	key := uint64(11)
	resp, err := lc.roundTrip(wireRequest{Op: "batch", Key: &key, Stmts: []wireStmt{
		{SQL: "INSERT INTO w (n, s) VALUES (?, ?)", Args: []walArg{{Kind: "i", Value: "-40"}, {Kind: "t", Value: "parent"}}},
		{SQL: "INSERT INTO w (n, s) VALUES (?, ?)", Args: []walArg{{Kind: "ref", Value: "0"}, {Kind: "t", Value: "child"}}},
		{SQL: "UPDATE w SET r = 2.5 WHERE n = ?", Args: []walArg{{Kind: "ref", Value: "0"}}},
	}}, nil)
	if err != nil || fmt.Sprint(resp.IDs) != "[4 5 0]" || resp.LSN != db.LSN() {
		t.Fatalf("batch from a legacy client = %+v, %v (server at LSN %d)", resp, err, db.LSN())
	}
	if row, err := db.QueryRow("SELECT n, r FROM w WHERE id = 5"); err != nil || row[0] != int64(4) || row[1] != 2.5 {
		t.Errorf("the child row = %v, %v; want the parent's id 4 and the update", row, err)
	}
}

// TestWireLegacyReplication: the replicate stream between a codec peer and
// an encoding/json peer, in both directions. Either way the follower ends up
// holding the primary's exact record bytes.
func TestWireLegacyReplication(t *testing.T) {
	db, addr := wireFixture(t)
	r, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	batchedSave(t, r) // a batch's records ship like any others
	want := shipped(t, db)

	t.Run("legacy follower", func(t *testing.T) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(10 * time.Second))
		if err := json.NewEncoder(c).Encode(wireRequest{Op: "replicate"}); err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bufio.NewReader(c))
		for _, rec := range want {
			var m replMsg
			if err := dec.Decode(&m); err != nil {
				t.Fatal(err)
			}
			if m.LSN != rec.lsn || !bytes.Equal(m.Entry, rec.raw) || m.PrimaryLSN != db.LSN() {
				t.Fatalf("frame = %+v, want LSN %d entry %s", m, rec.lsn, rec.raw)
			}
		}
	})

	t.Run("legacy primary", func(t *testing.T) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go func() {
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			var req wireRequest
			if json.NewDecoder(bufio.NewReader(c)).Decode(&req) != nil || req.Op != "replicate" {
				return
			}
			enc := json.NewEncoder(c)
			io.WriteString(c, "\n \n") // whitespace between values: not a message
			enc.Encode(replMsg{Heartbeat: true, PrimaryLSN: 3})
			for _, rec := range want {
				enc.Encode(replMsg{LSN: rec.lsn, Entry: rec.raw, PrimaryLSN: 3})
			}
			enc.Encode(replMsg{SnapshotRequired: true})
		}()
		s, err := DialReplication(l.Addr().String(), 0, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		follower := memDB(t)
		defer follower.Close()
		if ev, err := s.Recv(); err != nil || !ev.Heartbeat || ev.PrimaryLSN != 3 {
			t.Fatalf("heartbeat = %+v, %v", ev, err)
		}
		for _, rec := range want {
			ev, err := s.Recv()
			if err != nil || ev.LSN != rec.lsn || !bytes.Equal(ev.Entry, rec.raw) || ev.PrimaryLSN != 3 || ev.Heartbeat || ev.SnapshotRequired {
				t.Fatalf("event = %+v, %v; want LSN %d entry %s", ev, err, rec.lsn, rec.raw)
			}
			if err := follower.ApplyRecord(ev.LSN, ev.Entry); err != nil {
				t.Fatal(err)
			}
		}
		if ev, err := s.Recv(); err != nil || !ev.SnapshotRequired {
			t.Fatalf("snapshot-required = %+v, %v", ev, err)
		}
		if !bytes.Equal(snapshotBytes(t, follower), snapshotBytes(t, db)) {
			t.Error("follower of a legacy primary diverged")
		}
	})
}

// recordingConn stands in for a follower's socket: it keeps what was
// written and signals each Write.
type recordingConn struct {
	net.Conn // nil: only the methods serveReplicate calls are implemented
	writes   chan []byte
}

func (c recordingConn) Write(p []byte) (int, error) {
	c.writes <- append([]byte(nil), p...)
	return len(p), nil
}

func (c recordingConn) SetWriteDeadline(time.Time) error { return nil }

// TestReplicateOneWritePerBatch: everything the catch-up buffer returns
// for one drain goes to the socket in one write — whole frames, in order,
// each record's bytes verbatim — and the sent counter still counts records.
func TestReplicateOneWritePerBatch(t *testing.T) {
	db := memDB(t)
	defer db.Close()
	mustExec(t, db, "CREATE TABLE w (id INTEGER PRIMARY KEY, n INTEGER, s TEXT)")
	for i := 0; i < 500; i++ {
		mustExec(t, db, "INSERT INTO w (n, s) VALUES (?, ?)", int64(i), strings.Repeat("x <", i%97))
	}
	want := shipped(t, db)
	sent := metReplRecordsSent.Value()

	srv := &Server{DB: db}
	srv.mu.Lock()
	srv.initLocked()
	srv.mu.Unlock()
	conn := recordingConn{writes: make(chan []byte)}
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		srv.serveReplicate(&serverConn{c: conn}, wireRequest{Op: "replicate"})
	}()
	batch := <-conn.writes
	mustExec(t, db, "INSERT INTO w (n, s) VALUES (?, ?)", int64(-1), "after the drain")
	next := <-conn.writes
	close(srv.done)
	<-stopped

	lines := bytes.Split(bytes.TrimSuffix(batch, []byte("\n")), []byte("\n"))
	if len(lines) != len(want) {
		t.Fatalf("first write carries %d frames, want all %d buffered records", len(lines), len(want))
	}
	for i, rec := range want {
		ev, ok := scanReplFrame(lines[i])
		if !ok || ev.LSN != rec.lsn || !bytes.Equal(ev.Entry, rec.raw) || ev.PrimaryLSN != want[len(want)-1].lsn {
			t.Fatalf("frame %d = %s, want LSN %d entry %s", i, lines[i], rec.lsn, rec.raw)
		}
	}
	if ev, ok := scanReplFrame(bytes.TrimSuffix(next, []byte("\n"))); !ok || ev.LSN != db.LSN() {
		t.Errorf("the commit after the drain arrived as %s", next)
	}
	if n := metReplRecordsSent.Value() - sent; n != int64(len(want))+1 {
		t.Errorf("kdb_repl_records_sent_total moved by %d for %d records", n, len(want)+1)
	}
}

// The allocation ceilings sit just above what the codec achieved when they
// were set (33 and 29 on go1.24; with encoding/json on the path
// BenchmarkWireExec and BenchmarkApplyRecord read 72 and 43), so reflection
// cannot creep back onto the statement path unnoticed. Since the engine
// stopped re-boxing values it is handed, the two read 21 and 18.

func TestWireExecAllocs(t *testing.T) {
	db, addr := startServer(t)
	defer db.Close()
	r, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	benchWireTable(t, r)
	args := wireInsertArgs(1)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := r.Exec(wireInsert, args...); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 38 {
		t.Errorf("a loopback 9-argument Remote.Exec allocates %.0f times (client and server), ceiling 38", allocs)
	}
}

func TestApplyRecordAllocs(t *testing.T) {
	db := openFile(t, t.TempDir()+"/follower.kdb")
	benchWireTable(t, db)
	rec := record(t, wireInsert, wireInsertArgs(1)...)
	allocs := testing.AllocsPerRun(200, func() {
		if err := db.ApplyRecord(db.lsn+1, rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 32 {
		t.Errorf("ApplyRecord of a 9-argument insert allocates %.0f times, ceiling 32", allocs)
	}
}
