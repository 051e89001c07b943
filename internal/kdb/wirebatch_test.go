package kdb

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// dialServed serves db on loopback until the test ends and dials it.
func dialServed(t testing.TB, srv *Server) *Remote {
	t.Helper()
	l, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		r.Close()
		l.Close()
	})
	return r
}

// wireBatches sends ops to r as "batch" requests of up to size statements.
// Wherever an integer argument equals the id an earlier statement of the same
// batch inserted (ids says which), the argument goes out as that statement's
// Ref instead — the value the server must put back. It returns every
// statement's Ref and how many arguments travelled as references.
func wireBatches(t testing.TB, r *Remote, ops []randomOp, ids []int64, size int) (refs []Ref, asRef int) {
	t.Helper()
	refs = make([]Ref, len(ops))
	for from := 0; from < len(ops); from += size {
		to := min(from+size, len(ops))
		err := Batch(r, func(exec ExecFunc) error {
			for j := from; j < to; j++ {
				args := append([]any(nil), ops[j].args...)
				for k, a := range args {
					for e := from; e < j; e++ {
						if n, ok := a.(int64); ok && n != 0 && n == ids[e] {
							args[k] = refs[e]
							asRef++
							break
						}
					}
				}
				res, err := exec(ops[j].sql, args...)
				if err != nil {
					return err
				}
				refs[j] = res.Ref()
			}
			return nil
		})
		if err != nil {
			t.Fatalf("wire batch %d..%d: %v", from, to, err)
		}
	}
	return refs, asRef
}

// saveShaped is a batch with the shape of schema's saves: per object one
// parent row, children naming the parent's id, grandchildren naming a
// child's. exec's results are only used through their Refs.
func saveShaped(objects int) func(exec ExecFunc) error {
	return func(exec ExecFunc) error {
		for o := 0; o < objects; o++ {
			args := wireInsertArgs(o)
			args[0] = int64(-1 - o) // no parent looks like a child of some row
			parent, err := exec(wireInsert, args...)
			if err != nil {
				return err
			}
			var parentID any = parent.Ref()
			for c := 0; c < 4; c++ {
				args[0] = parentID
				child, err := exec(wireInsert, args...)
				if err != nil {
					return err
				}
				args[0] = child.Ref()
				for g := 0; g < 2+c%2; g++ {
					if _, err := exec(wireInsert, args...); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
}

const saveShapedStmts = 1 + 4 + 2 + 3 + 2 + 3 // per object: 15, as a knowledge object's save

// TestWireBatchIsOneStep: a batch over the wire is one request, one write
// step and one log flush, answers the ids an embedded database gives the same
// statements, and leaves the same bytes behind.
func TestWireBatchIsOneStep(t *testing.T) {
	served := openFile(t, filepath.Join(t.TempDir(), "served.kdb"))
	embedded := openFile(t, filepath.Join(t.TempDir(), "embedded.kdb"))
	r := dialServed(t, &Server{DB: served})
	benchWireTable(t, r)
	benchWireTable(t, embedded)

	var want []int64
	if err := embedded.Batch(func(exec ExecFunc) error {
		return saveShaped(3)(func(q string, a ...any) (Result, error) {
			res, err := exec(q, a...)
			want = append(want, res.LastInsertID)
			return res, err
		})
	}); err != nil {
		t.Fatal(err)
	}

	requests, flushes, batches := metServerRequests.Value(), metWALFlushes.Value(), metBatchesTotal.Value()
	var refs []Ref
	err := BatchKeyed(r, 42, func(exec ExecFunc) error {
		return saveShaped(3)(func(q string, a ...any) (Result, error) {
			res, err := exec(q, a...)
			if res.LastInsertID != 0 || res.LSN != 0 || res.Ref().ID() != 0 {
				t.Errorf("a recorded exec reported %+v before the batch was sent", res)
			}
			refs = append(refs, res.Ref())
			return res, err
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if dr, df, db := metServerRequests.Value()-requests, metWALFlushes.Value()-flushes, metBatchesTotal.Value()-batches; dr != 1 || df != 1 || db != 1 {
		t.Errorf("a %d-statement wire batch cost %d requests, %d log flushes, %d write steps; want 1 of each", len(refs), dr, df, db)
	}
	var got []int64
	for _, ref := range refs {
		got = append(got, ref.ID())
	}
	if len(got) != 3*saveShapedStmts || !reflect.DeepEqual(got, want) {
		t.Errorf("ids over the wire %v, embedded %v", got, want)
	}
	if r.LSN() != served.LSN() || served.LSN() != embedded.LSN() {
		t.Errorf("LSN: client saw %d, served %d, embedded %d", r.LSN(), served.LSN(), embedded.LSN())
	}
	a, _ := os.ReadFile(served.path)
	b, _ := os.ReadFile(embedded.path)
	if !bytes.Equal(a, b) || len(a) == 0 {
		t.Errorf("log of the served database (%d bytes) differs from the embedded one's (%d bytes)", len(a), len(b))
	}
	// A resolved Ref is an ordinary integer argument on any connection.
	for _, c := range []Conn{r, embedded} {
		row, err := c.QueryRow("SELECT COUNT(*) FROM w WHERE a = ?", refs[0])
		if err != nil || row[0] != int64(4) {
			t.Errorf("children of the first parent, asked by Ref: %v, %v", row, err)
		}
	}
}

// TestWireBatchRefusals: every malformed reference is refused with an
// error response before anything is applied (or, by the client, sent), a
// statement failing in the middle undoes the ones before it, and the
// connection stays usable.
func TestWireBatchRefusals(t *testing.T) {
	db, addr := startServer(t)
	defer db.Close()
	mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, n INTEGER)")
	mustExec(t, db, "CREATE TABLE bare (n INTEGER)")
	untouched := func(t *testing.T, what string) {
		t.Helper()
		if db.LSN() != 2 {
			t.Errorf("%s moved the LSN to %d", what, db.LSN())
		}
		if row, err := db.QueryRow("SELECT COUNT(*) FROM p"); err != nil || row[0] != int64(0) {
			t.Errorf("%s left rows behind: %v, %v", what, row, err)
		}
	}
	ins := `{"sql":"INSERT INTO p (n) VALUES (?)","args":[{"k":"i","v":"1"}]}`
	ref := func(i string) string {
		return `{"sql":"INSERT INTO p (n) VALUES (?)","args":[{"k":"ref","v":"` + i + `"}]}`
	}
	for _, c := range []struct{ name, stmts, want string }{
		{"forward", ins + "," + ref("2") + "," + ins, "only an earlier statement"},
		{"self", ins + "," + ref("1"), "only an earlier statement"},
		{"first statement", ref("0"), "only an earlier statement"},
		{"out of range", ins + "," + ref("7"), "only an earlier statement"},
		{"negative", ins + "," + ref("-1"), "only an earlier statement"},
		{"not a number", ins + "," + ref("x"), ""},
		{"inserted nothing", ins + `,{"sql":"UPDATE p SET n = 2"},` + ref("1"), "inserted nothing"},
		{"no id to give", `{"sql":"INSERT INTO bare (n) VALUES (1)"},` + ref("0"), "inserted nothing"},
		{"failing statement", ins + "," + ref("0") + `,{"sql":"INSERT INTO p (n) VALUES ('text')"},` + ins, "INTEGER"},
		{"not SQL", ins + `,{"sql":"NOT SQL"}`, ""},
	} {
		for _, line := range []string{
			`{"op":"batch","stmts":[` + c.stmts + `]}`,
			`{"stmts": [` + c.stmts + `], "op": "batch"}`, // the structs' path
		} {
			got := rawExchange(t, addr, line+"\n", false)
			if !strings.HasPrefix(got, `{"err":"`) || !strings.Contains(got, c.want) {
				t.Errorf("%s: %s\n answered %s", c.name, line, got)
			}
			untouched(t, c.name)
		}
	}
	// References in a plain exec are no part of the protocol.
	if got := rawExchange(t, addr, `{"op":"exec","sql":"INSERT INTO p (n) VALUES (?)","args":[{"k":"ref","v":"0"}]}`+"\n", false); !strings.Contains(got, "corrupt log argument kind") {
		t.Errorf("exec with a reference cell answered %s", got)
	}
	untouched(t, "exec with a reference")

	r, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	requests := metServerRequests.Value()
	var stale Ref
	for name, fn := range map[string]func(ExecFunc) error{
		"zero Ref": func(exec ExecFunc) error {
			_, err := exec("INSERT INTO p (n) VALUES (?)", Ref{})
			return err
		},
		"Ref of another batch": func(exec ExecFunc) error {
			res, err := exec("INSERT INTO p (n) VALUES (1)")
			if err != nil {
				return err
			}
			return Batch(r, func(inner ExecFunc) error {
				_, err := inner("INSERT INTO p (n) VALUES (?)", res.Ref())
				return err
			})
		},
		"unloggable argument": func(exec ExecFunc) error {
			_, err := exec("INSERT INTO p (n) VALUES (?)", struct{}{})
			return err
		},
		"fn fails": func(exec ExecFunc) error {
			res, err := exec("INSERT INTO p (n) VALUES (1)")
			stale = res.Ref()
			return errors.Join(err, errors.New("changed my mind"))
		},
	} {
		if err := Batch(r, fn); err == nil {
			t.Errorf("%s: the batch went through", name)
		}
		untouched(t, name)
	}
	if n := metServerRequests.Value() - requests; n != 0 {
		t.Errorf("the client sent %d requests for batches it should have refused itself", n)
	}
	if _, err := r.Exec("INSERT INTO p (n) VALUES (?)", stale); err == nil || db.LSN() != 2 {
		t.Errorf("a Ref of a batch that was never sent was accepted as an argument (err %v)", err)
	}
	// Over the wire a statement fails when the batch is sent, not when it is
	// recorded; either way the batch's error is the statement's.
	err = Batch(r, func(exec ExecFunc) error {
		for _, sql := range []string{"INSERT INTO p (n) VALUES (1)", "INSERT INTO missing (n) VALUES (1)"} {
			if _, err := exec(sql); err != nil {
				t.Errorf("%s failed at record time: %v", sql, err)
			}
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), `no such table "missing"`) {
		t.Errorf("failing wire batch: err = %v", err)
	}
	untouched(t, "a batch failing on the server")
	if res, err := r.Exec("INSERT INTO p (n) VALUES (5)"); err != nil || res.LastInsertID != 1 {
		t.Errorf("connection unusable after refused batches: %+v, %v", res, err)
	}

	ro := dialServed(t, &Server{DB: db, ReadOnly: true})
	err = Batch(ro, func(exec ExecFunc) error {
		_, err := exec("INSERT INTO p (n) VALUES (6)")
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "read-only replica") || db.LSN() != 3 {
		t.Errorf("batch through a read-only server: err = %v, LSN %d", err, db.LSN())
	}
}

// TestWireBatchThroughEmbeddingWrapper: the capability is unexported, so a
// type embedding a *Remote carries it unseen and takes the same one-request
// path through Batch — and is still no Batcher.
func TestWireBatchThroughEmbeddingWrapper(t *testing.T) {
	db, addr := startServer(t)
	defer db.Close()
	benchWireTable(t, db)
	r, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	type wrapper struct{ *Remote }
	var w Conn = wrapper{r}
	if _, ok := w.(Batcher); ok {
		t.Fatal("a *Remote must not export Batch")
	}
	requests := metServerRequests.Value()
	if err := BatchKeyed(w, 9, saveShaped(2)); err != nil {
		t.Fatal(err)
	}
	if n := metServerRequests.Value() - requests; n != 1 || db.LSN() != 1+2*saveShapedStmts {
		t.Errorf("batch through the wrapper: %d requests, LSN %d", n, db.LSN())
	}
}

// checkBatchScan holds scanBatchRequest to the structs: whenever it accepts a
// line, encoding/json and decodeStmts read the same request from it.
func checkBatchScan(t testing.TB, line []byte) bool {
	t.Helper()
	req, stmts, ok := scanBatchRequest(line)
	if !ok {
		return false
	}
	var want wireRequest
	if err := json.Unmarshal(line, &want); err != nil {
		t.Fatalf("batch scanner accepted %q, encoding/json rejects it: %v", line, err)
	}
	wantStmts, err := decodeStmts(want.Stmts)
	if err != nil {
		t.Fatalf("batch scanner accepted %q, decodeStmts rejects it: %v", line, err)
	}
	want.Stmts = nil
	if !reflect.DeepEqual(req, want) || len(stmts) != len(wantStmts) {
		t.Fatalf("scanBatchRequest(%q) = %+v with %d statements, encoding/json says %+v with %d", line, req, len(stmts), want, len(wantStmts))
	}
	for j := range stmts {
		if stmts[j].sql != wantStmts[j].sql || !sameValues(stmts[j].args, wantStmts[j].args) {
			t.Fatalf("scanBatchRequest(%q) statement %d = %+v, encoding/json says %+v", line, j, stmts[j], wantStmts[j])
		}
	}
	// Reference checking is total: it refuses or it leaves nothing that
	// could index outside the batch.
	if checkRefs(stmts) == nil {
		for j, st := range stmts {
			for _, a := range st.args {
				if r, isRef := a.(refArg); isRef && (r < 0 || int(r) >= j) {
					t.Fatalf("checkRefs passed statement %d referring to %d in %q", j, r, line)
				}
			}
		}
	}
	return true
}

// checkBatchRequest records stmts as a wire client would, with arguments
// that equal an earlier statement's index sent as references to it, and
// demands the structs' bytes from the recorder and acceptance by the scanner.
func checkBatchRequest(t testing.TB, key *uint64, traceID, spanID string, stmts []batchStmt) []byte {
	t.Helper()
	b := &recording{line: appendBatchHead(nil, key)}
	want := wireRequest{Op: "batch", Key: key, TraceID: traceID, SpanID: spanID}
	results := make([]Result, len(stmts))
	for j, st := range stmts {
		args := append([]any(nil), st.args...)
		wa := mustEncodeArgs(t, args)
		for k, a := range args {
			if n, ok := a.(int64); ok && n >= 0 && n < int64(j) {
				args[k] = results[n].Ref()
				wa[k] = walArg{Kind: "ref", Value: fmt.Sprint(n)}
			}
		}
		var err error
		if results[j], err = b.exec(st.sql, args...); err != nil {
			t.Fatal(err)
		}
		want.Stmts = append(want.Stmts, wireStmt{SQL: st.sql, Args: wa})
	}
	line := appendBatchTail(b.line, traceID, spanID)
	if wantLine := append(mustMarshal(t, want), '\n'); !bytes.Equal(line, wantLine) {
		t.Fatalf("batch request\n got %s\nwant %s", line, wantLine)
	}
	line = line[:len(line)-1]
	canonical := true
	for _, st := range stmts {
		canonical = canonical && st.sql != ""
	}
	if checkBatchScan(t, line) != canonical {
		t.Fatalf("scanner acceptance of the recorder's own %s = %v", line, !canonical)
	}
	return line
}

// FuzzWireBatch holds the batch scanner to the structs on fuzzed lines, and
// the server's handling of whatever either reads to "answers, never panics".
func FuzzWireBatch(f *testing.F) {
	for _, seed := range []string{
		`{"op":"batch","stmts":[{"sql":"INSERT INTO p (n) VALUES (?)","args":[{"k":"i","v":"1"}]},{"sql":"INSERT INTO p (n) VALUES (?)","args":[{"k":"ref","v":"0"}]}]}`,
		`{"op":"batch","key":18446744073709551615,"stmts":[{"sql":"UPDATE p SET n = 1"}],"trace_id":"cafe","span_id":"beef"}`,
		`{"op":"batch","stmts":[{"sql":"x","args":[{"k":"ref","v":"3"}]}]}`,
		`{"op":"batch","stmts":[{"sql":"x","args":[{"k":"ref","v":"-1"},{"k":"ref"},{"k":"ref","v":"007"}]}]}`,
		`{"op":"batch"}`, `{"op":"batch","stmts":[]}`, `{"op":"batch","key":-1,"stmts":[{"sql":"x"}]}`,
		`{"ids":[1,0,3],"lsn":9}`,
	} {
		f.Add([]byte(seed))
	}
	db, err := Open("")
	if err != nil {
		f.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE p (id INTEGER PRIMARY KEY, n INTEGER)"); err != nil {
		f.Fatal(err)
	}
	srv := &Server{DB: db}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkWireScan(t, line)
		if req, ok := decodeRequest(line); ok && req.Op == "batch" {
			srv.dispatch(&req)
		}
	})
}

func TestWireBatchAllocs(t *testing.T) {
	db, addr := startServer(t)
	defer db.Close()
	r, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	benchWireTable(t, r)
	save := saveShaped(16)
	allocs := testing.AllocsPerRun(20, func() {
		if err := Batch(r, save); err != nil {
			t.Fatal(err)
		}
	})
	// 18.3 on go1.24; the same statement as an exec of its own allocates 21
	// times (TestWireExecAllocs, ceiling 38).
	if per := allocs / (16 * saveShapedStmts); per > 22 {
		t.Errorf("a loopback wire batch allocates %.1f times per 9-argument statement (client and server), ceiling 22", per)
	}
}

// TestReplStreamGroups scripts a primary — an encoding/json one, so the
// frames are a legacy peer's — and holds RecvGroup to its contract: records
// come back together up to the primary LSN their frames name, anything else
// comes back alone and is never swallowed by a group, and a stream that
// breaks inside a group still hands over the records that arrived.
func TestReplStreamGroups(t *testing.T) {
	db := memDB(t)
	defer db.Close()
	wireRows(t, db)
	for i := 0; i < 6; i++ {
		mustExec(t, db, "INSERT INTO w (n, s) VALUES (?, ?)", int64(i), "row <&>")
	}
	recs := shipped(t, db) // LSN 1..9
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
		if json.NewDecoder(bufio.NewReader(c)).Decode(&req) != nil {
			return
		}
		enc := json.NewEncoder(c)
		frame := func(i int, primaryLSN int64) {
			enc.Encode(replMsg{LSN: recs[i].lsn, Entry: recs[i].raw, PrimaryLSN: primaryLSN})
		}
		enc.Encode(replMsg{Heartbeat: true, PrimaryLSN: 4})
		for i := 0; i < 4; i++ {
			frame(i, 4) // one shipped batch: 1..4
		}
		frame(4, 5) // a commit of its own
		frame(5, 8) // a batch cut short by a heartbeat
		frame(6, 8)
		enc.Encode(replMsg{Heartbeat: true, PrimaryLSN: 8})
		frame(7, 9) // and one the connection does not survive
	}()
	s, err := DialReplication(l.Addr().String(), 0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	follower := memDB(t)
	defer follower.Close()
	for _, want := range []struct{ first, n int64 }{{0, 1}, {1, 4}, {5, 1}, {6, 2}, {0, 1}, {8, 1}} {
		evs, err := s.RecvGroup()
		if err != nil || int64(len(evs)) != want.n || evs[0].LSN != want.first || evs[0].Heartbeat != (want.first == 0) {
			t.Fatalf("group = %+v, %v; want %d messages from LSN %d", evs, err, want.n, want.first)
		}
		if want.first == 0 {
			continue
		}
		for i, ev := range evs {
			if ev.LSN != want.first+int64(i) || !bytes.Equal(ev.Entry, recs[ev.LSN-1].raw) {
				t.Fatalf("group from LSN %d: message %d = %+v", want.first, i, ev)
			}
		}
		if err := follower.ApplyRecords(evs); err != nil {
			t.Fatal(err)
		}
	}
	if evs, err := s.RecvGroup(); err == nil {
		t.Fatalf("after the stream broke: %+v", evs)
	}
	if _, err := s.recv(); err == nil {
		t.Fatal("a broken stream was read again")
	}
	if follower.LSN() != 8 || !reflect.DeepEqual(shipped(t, follower), recs[:8]) {
		t.Errorf("follower at LSN %d holds other records than the primary's first eight", follower.LSN())
	}
}
