package kdb

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// footprintOf runs one SELECT asking for its footprint.
func footprintOf(t *testing.T, c Conn, sql string, args ...any) (*Rows, Footprint, int64) {
	t.Helper()
	out, err := c.QueryBatch(telemetry.TraceContext{}, []Stmt{{SQL: sql, Args: args, Footprint: true}})
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	fp, lsn := out[0].Footprint()
	return out[0], fp, lsn
}

// footprintDB is the fixture of the footprint tests: a with a primary key
// and two secondary indexes, b pointing at a through an indexed column, c
// with none.
func footprintDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for _, q := range []string{
		"CREATE TABLE a (id INTEGER PRIMARY KEY, k INTEGER, r REAL, s TEXT)",
		"CREATE INDEX ix_a_k ON a (k)",
		"CREATE INDEX ix_a_s ON a (s)",
		"CREATE TABLE b (id INTEGER PRIMARY KEY, a_id INTEGER, v REAL)",
		"CREATE INDEX ix_b_a ON b (a_id)",
		"CREATE TABLE c (id INTEGER PRIMARY KEY, x INTEGER)",
		"INSERT INTO a (k, r, s) VALUES (1, 1.5, 'one'), (2, 2.5, 'two'), (2, 3.5, NULL)",
		"INSERT INTO b (a_id, v) VALUES (1, 10), (2, 20), (2, 21), (3, 30)",
		"INSERT INTO c (x) VALUES (1), (2), (5)",
	} {
		mustExec(t, db, q)
	}
	return db
}

func TestFootprintOfEachAccessPath(t *testing.T) {
	db := footprintDB(t)
	key := func(table, col string, v any) Dep { return Dep{Kind: DepKey, Table: table, Col: col, Val: v} }
	row := func(table string) Dep { return Dep{Kind: DepRow, Table: table} }
	whole := func(table string) Dep { return Dep{Kind: DepWhole, Table: table} }
	upto := func(table, col string) Dep { return Dep{Kind: DepUpto, Table: table, Col: col} }
	for _, tc := range []struct {
		sql  string
		args []any
		want Footprint
	}{
		{"SELECT s FROM a WHERE id = ?", []any{2}, Footprint{row("a")}},
		{"SELECT s FROM a WHERE id = ?", []any{9}, Footprint{whole("a")}},
		{"SELECT id FROM a WHERE k = ? ORDER BY id", []any{2.0}, Footprint{key("a", "k", int64(2))}},
		{"SELECT id FROM a WHERE s = ?", []any{"none"}, Footprint{key("a", "s", "none")}},
		{"SELECT id FROM a WHERE id > ? ORDER BY id LIMIT 1", []any{1}, Footprint{upto("a", "id")}},
		{"SELECT COUNT(*) FROM a", nil, Footprint{whole("a")}},
		{"SELECT k, COUNT(*) FROM a GROUP BY k", nil, Footprint{whole("a")}},
		// An index join probes b once per base row; a probe of a's primary
		// key that finds its row is a Row.
		{"SELECT a.s, b.v FROM a JOIN b ON a.id = b.a_id WHERE a.k = ? ORDER BY b.id", []any{2},
			Footprint{key("a", "k", int64(2)), key("b", "a_id", int64(2)), key("b", "a_id", int64(3))}},
		{"SELECT b.v, a.s FROM b JOIN a ON b.a_id = a.id WHERE b.a_id = ?", []any{3},
			Footprint{key("b", "a_id", int64(3)), row("a")}},
		{"SELECT b.v FROM b JOIN a ON b.a_id = a.id WHERE b.id = ?", []any{1}, Footprint{row("b"), row("a")}},
		// A hash join (c.x has no index) depends on the probed values too.
		{"SELECT a.id, c.id FROM a JOIN c ON a.k = c.x WHERE a.id = ?", []any{1}, Footprint{row("a"), key("c", "x", int64(1))}},
		// A loop join depends on the whole joined table.
		{"SELECT a.id, c.id FROM a JOIN c ON c.x = c.id WHERE a.id = ?", []any{1}, Footprint{row("a"), whole("c")}},
	} {
		_, fp, lsn := footprintOf(t, db, tc.sql, tc.args...)
		if !reflect.DeepEqual(fp, tc.want) {
			t.Errorf("%s %v: footprint %v, want %v", tc.sql, tc.args, fp, tc.want)
		}
		if lsn != db.LSN() {
			t.Errorf("%s: read at LSN %d, database at %d", tc.sql, lsn, db.LSN())
		}
	}
	// Not asked, not computed; the other read sources report none.
	if rows, err := db.Query("SELECT s FROM a WHERE id = 1"); err != nil {
		t.Fatal(err)
	} else if fp, _ := rows.Footprint(); fp != nil {
		t.Errorf("unasked footprint %v", fp)
	}
	if _, fp, _ := footprintOf(t, db, "SELECT trace_id FROM __slow_queries"); fp != nil {
		t.Errorf("trace table reported footprint %v", fp)
	}
}

// TestFootprintKeysCollapse: a join probing more distinct values than
// maxKeyDeps depends on the whole joined table.
func TestFootprintKeysCollapse(t *testing.T) {
	db := footprintDB(t)
	for i := 0; i < maxKeyDeps+1; i++ {
		mustExec(t, db, "INSERT INTO a (k) VALUES (?)", int64(100+i))
	}
	_, fp, _ := footprintOf(t, db, "SELECT a.id, c.id FROM a JOIN c ON a.k = c.x")
	if want := (Footprint{{Kind: DepWhole, Table: "a"}, {Kind: DepWhole, Table: "c"}}); !reflect.DeepEqual(fp, want) {
		t.Errorf("footprint %v, want %v", fp, want)
	}
}

func TestClassifyRecord(t *testing.T) {
	rec := func(sql string, args ...any) []byte {
		b, err := appendRecord(nil, sql, args)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	rewrite := func(table string) Change { return Change{table: table, rewrite: true} }
	for _, tc := range []struct {
		rec  []byte
		want Change
	}{
		{rec("INSERT INTO A (K, s) VALUES (?, 'x'), (2.0, ?)", 1, strings.Repeat("long ", 7)),
			Change{table: "a", cols: []string{"k", "s"}, keys: []uint64{keyMark("a", "k", int64(1)), keyMark("a", "s", "x"),
				keyMark("a", "k", int64(2)), keyMark("a", "s", strings.Repeat("long ", 7))}}},
		{rec("INSERT INTO a VALUES (1, 2, 3.0, 'x')"), rewrite("a")},
		{rec("UPDATE a SET s = 'y' WHERE id = 1"), rewrite("a")},
		{rec("DELETE FROM b WHERE a_id = ?", 2), rewrite("b")},
		{rec("CREATE TABLE d (id INTEGER PRIMARY KEY)"), rewrite("d")},
		{rec("CREATE INDEX ix_c_x ON c (x)"), rewrite("c")},
		{rec("DROP TABLE c"), rewrite("c")},
		{rec("DROP INDEX ix_a_k"), everything},
		{[]byte(`{"meta":true,"base_lsn":7}`), everything},
		{[]byte(`not a record`), everything},
	} {
		ev := ReplEvent{Entry: tc.rec}
		if got := ev.Change(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Change of %s = %+v, want %+v", tc.rec, got, tc.want)
		}
	}
}

func TestFootprintHitRules(t *testing.T) {
	key := Footprint{{Kind: DepKey, Table: "a", Col: "k", Val: int64(1)}}
	null := Footprint{{Kind: DepKey, Table: "a", Col: "s", Val: nil}}
	row := Footprint{{Kind: DepRow, Table: "a"}}
	whole := Footprint{{Kind: DepWhole, Table: "a"}}
	upto := Footprint{{Kind: DepUpto, Table: "a", Col: "id"}}
	// appendTo is the Change of an INSERT naming cols, one row per
	// len(cols) of vals.
	appendTo := func(table string, cols []string, vals ...any) Change {
		row := "(?" + strings.Repeat(", ?", len(cols)-1) + ")"
		rows := strings.Repeat(", "+row, len(vals)/len(cols)-1)
		return classifyStmt(fmt.Sprintf("INSERT INTO %s (%s) VALUES %s%s", table, strings.Join(cols, ", "), row, rows), vals)
	}
	appendA := func(cols []string, vals ...any) Change { return appendTo("a", cols, vals...) }
	long := strings.Repeat("x", 33)
	text := Footprint{{Kind: DepKey, Table: "a", Col: "s", Val: long}}
	for _, tc := range []struct {
		name string
		fp   Footprint
		ch   Change
		hit  bool
	}{
		{"key: the value appended", key, appendA([]string{"k"}, int64(1)), true},
		{"key: 1 = 1.0", key, appendA([]string{"k"}, 1.0), true},
		{"key: another value", key, appendA([]string{"k"}, int64(2)), false},
		{"key: another column", key, appendA([]string{"s", "r"}, "1", 1.0), false},
		{"key: an omitted column is NULL", null, appendA([]string{"k"}, int64(1)), true},
		{"key: a NULL key and a value", null, appendA([]string{"s"}, "x"), false},
		{"key: a column spelled in capitals", key, appendA([]string{"K"}, int64(1)), true},
		{"key: the second row", key, appendA([]string{"s", "k"}, "x", int64(2), "y", int64(1)), true},
		{"key: a long text", text, appendA([]string{"s"}, long), true},
		{"key: another long text", text, appendA([]string{"s"}, long+"y"), false},
		{"key: another table", key, appendTo("b", []string{"k"}, int64(1)), false},
		{"key: a rewrite", key, Change{table: "a", rewrite: true}, true},
		{"row: an append", row, appendA([]string{"id", "k"}, int64(9), int64(1)), false},
		{"row: a rewrite", row, Change{table: "a", rewrite: true}, true},
		{"row: another table's rewrite", row, Change{table: "b", rewrite: true}, false},
		{"row: everything", row, everything, true},
		{"upto: an automatic key", upto, appendA([]string{"k", "s"}, int64(1), "x"), false},
		{"upto: an explicit key", upto, appendA([]string{"k", "id"}, int64(1), int64(2)), true},
		{"upto: a NULL key", upto, appendA([]string{"ID"}, nil), true},
		{"upto: a rewrite", upto, Change{table: "a", rewrite: true}, true},
		{"upto: another table's key", upto, appendTo("b", []string{"id"}, int64(1)), false},
		{"upto: everything", upto, everything, true},
		{"whole: an append", whole, appendA([]string{"k"}, int64(7)), true},
		{"whole: another table", whole, appendTo("b", []string{"k"}, int64(1)), false},
		{"unknown: anything", nil, appendTo("b", []string{"x"}, int64(1)), true},
	} {
		if got := tc.fp.HitBy(tc.ch); got != tc.hit {
			t.Errorf("%s: HitBy = %v, want %v", tc.name, got, tc.hit)
		}
	}
}

// TestFootprintExactness is the property the api's cache stands on: after
// any committed statement whose change misses an answer's footprint,
// running the statement again answers the same — embedded, and over the
// wire, where the footprint and LSN must be the embedded ones.
func TestFootprintExactness(t *testing.T) {
	db := footprintDB(t)
	mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, db, "INSERT INTO p (v) VALUES (1), (2), (3), (4)")
	srv := &Server{DB: db}
	l, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	remote, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	rng := rand.New(rand.NewSource(45))
	type query struct {
		sql  string
		args []any
	}
	var queries []query
	for i := 0; i < 6; i++ {
		v := any(int64(i))
		if i%2 == 1 {
			v = float64(i)
		}
		queries = append(queries,
			query{"SELECT * FROM a WHERE id = ?", []any{v}},
			query{"SELECT id, r FROM a WHERE k = ? ORDER BY id", []any{v}},
			query{"SELECT a.s, b.v FROM a JOIN b ON a.id = b.a_id WHERE a.k = ? ORDER BY b.id", []any{v}},
			query{"SELECT b.v, a.s FROM b JOIN a ON b.a_id = a.id WHERE b.a_id = ?", []any{v}},
			query{"SELECT a.id, c.id FROM a JOIN c ON a.k = c.x WHERE a.id = ?", []any{v}},
			query{"SELECT a.id, c.id FROM a JOIN c ON c.x = c.id WHERE a.id = ?", []any{v}},
		)
	}
	queries = append(queries,
		query{"SELECT id FROM a WHERE s = ?", []any{"s1"}},
		query{"SELECT id FROM a WHERE s = ?", []any{nil}},
		query{"SELECT COUNT(*) FROM b", nil},
		query{"SELECT id FROM a WHERE id > ? ORDER BY id LIMIT 2", []any{int64(2)}},
		// Pages OFFSET+LIMIT stops, on the range and the scan path, are
		// kept across appends that name no key (DepUpto).
		query{"SELECT id, k FROM a WHERE id >= ? ORDER BY id LIMIT 3", []any{int64(1)}},
		query{"SELECT id, s FROM a ORDER BY id LIMIT 2 OFFSET 1", nil},
		query{"SELECT id FROM a WHERE k > ? LIMIT 2", []any{int64(0)}},
		query{"SELECT id FROM c LIMIT 1", nil},
		query{"SELECT id, v FROM p ORDER BY id LIMIT 3", nil},
		query{"SELECT id FROM p WHERE id > ? ORDER BY id LIMIT 2", []any{int64(1)}},
		query{"SELECT id FROM p WHERE id >= ? ORDER BY id LIMIT 2 OFFSET 1", []any{2.0}},
	)
	type cached struct {
		answer string
		fp     Footprint
	}
	answer := func(q query) cached {
		rows, fp, lsn := footprintOf(t, db, q.sql, q.args...)
		wrows, wfp, wlsn := footprintOf(t, remote, q.sql, q.args...)
		if !reflect.DeepEqual(fp, wfp) || lsn != wlsn || fmt.Sprint(rows.All()) != fmt.Sprint(wrows.All()) {
			t.Fatalf("%s %v: embedded %v at %d, wire %v at %d", q.sql, q.args, fp, lsn, wfp, wlsn)
		}
		return cached{fmt.Sprint(rows.Columns, rows.All()), fp}
	}
	cache := make([]cached, len(queries))
	for i, q := range queries {
		cache[i] = answer(q)
	}
	small := func() any {
		if rng.Intn(3) == 0 {
			return float64(rng.Intn(6))
		}
		return int64(rng.Intn(6))
	}
	text := func() any {
		if rng.Intn(4) == 0 {
			return nil
		}
		return fmt.Sprintf("s%d", rng.Intn(3))
	}
	kept, hit, upto := 0, 0, 0
	for step := 0; step < 400; step++ {
		var err error
		switch rng.Intn(14) {
		case 0, 1:
			_, err = db.Exec("INSERT INTO a (k, r, s) VALUES (?, ?, ?)", small(), rng.Float64(), text())
		case 2:
			_, err = db.Exec("INSERT INTO a (k) VALUES (?)", small())
		case 3:
			_, err = db.Exec("INSERT INTO a (id, k, s) VALUES (?, ?, ?)", int64(rng.Intn(12)), small(), text())
		case 4:
			_, err = db.Exec("INSERT INTO b (a_id, v) VALUES (?, ?)", small(), rng.Float64())
		case 5:
			_, err = db.Exec("INSERT INTO c (x) VALUES (?), (?)", small(), small())
		case 6:
			_, err = db.Exec("UPDATE a SET s = ? WHERE k = ?", text(), small())
		case 7:
			_, err = db.Exec("DELETE FROM b WHERE a_id = ?", small())
		case 8:
			_, err = db.Exec("INSERT INTO c VALUES (?, ?)", int64(100+step), small())
		case 9:
			// A NULL key names the key column: an automatic key, counted as
			// an explicit one.
			_, err = db.Exec("INSERT INTO a (id, k) VALUES (?, ?)", nil, small())
		case 10:
			// A key moved above the auto-increment mark: the automatic keys
			// appended next land below it.
			var last []any
			if last, err = db.QueryRow("SELECT id FROM a ORDER BY id DESC LIMIT 1"); err == nil {
				_, err = db.Exec("UPDATE a SET id = ? WHERE id = ?", int64(1000+step), last[0])
			}
		case 11:
			// p's keys: automatic, NULL, or explicit below every page or
			// above every key; only the first two miss p's pages.
			switch rng.Intn(4) {
			case 0:
				_, err = db.Exec("INSERT INTO p (v) VALUES (?)", small())
			case 1:
				_, err = db.Exec("INSERT INTO p (id, v) VALUES (?, ?)", nil, small())
			case 2:
				_, err = db.Exec("INSERT INTO p (id, v) VALUES (?, ?)", int64(-step), small())
			default:
				_, err = db.Exec("INSERT INTO p (id, v) VALUES (?, ?)", int64(100000*(step+1)), small())
			}
		case 12:
			// p back in key order, so its pages are Uptos again.
			_, err = db.Exec("DELETE FROM p WHERE id < 1")
		default:
			_, err = db.Exec("CREATE INDEX IF NOT EXISTS ix_c_x ON c (x)")
		}
		if err != nil {
			continue // a duplicate key: nothing committed
		}
		recs, ok := db.RecordsSince(db.LSN() - 1)
		if !ok || len(recs) != 1 {
			t.Fatalf("step %d: %d records since the last commit", step, len(recs))
		}
		ch := recs[0].Change()
		for i, q := range queries {
			now := answer(q)
			if !cache[i].fp.HitBy(ch) {
				kept++
				if len(cache[i].fp) == 1 && cache[i].fp[0].Kind == DepUpto && ch.table == cache[i].fp[0].Table {
					upto++
				}
				if now.answer != cache[i].answer {
					t.Fatalf("step %d: %s %v changed from %s to %s, but %s missed its footprint %v",
						step, q.sql, q.args, cache[i].answer, now.answer, recs[0].Entry, cache[i].fp)
				}
			} else {
				hit++
			}
			cache[i] = now
		}
	}
	if kept < 1000 || hit < 1000 || upto < 50 {
		t.Fatalf("kept %d (%d pages across appends) and hit %d answers: the history exercised too little", kept, upto, hit)
	}
}

// TestUptoAboveAutoID: a page stopped at a key above the auto-increment
// mark (an UPDATE moved it there) depends on the whole table, since the
// next automatic key lands below it; at or under the mark it is an Upto.
func TestUptoAboveAutoID(t *testing.T) {
	db := footprintDB(t) // a holds keys 1, 2, 3; its mark is 3
	mustExec(t, db, "UPDATE a SET id = 10 WHERE id = 3")
	page := "SELECT id FROM a WHERE id > ? ORDER BY id LIMIT 1"
	rows, fp, _ := footprintOf(t, db, page, int64(2))
	if want := (Footprint{{Kind: DepWhole, Table: "a"}}); !reflect.DeepEqual(fp, want) || fmt.Sprint(rows.All()) != "[[10]]" {
		t.Fatalf("page %v stopped above the mark: footprint %v, want %v", rows.All(), fp, want)
	}
	if _, fp, _ := footprintOf(t, db, page, int64(0)); !reflect.DeepEqual(fp, Footprint{{Kind: DepUpto, Table: "a", Col: "id"}}) {
		t.Fatalf("page stopped at key 1: footprint %v, want an Upto", fp)
	}
	// The next automatic key, 4, lands below 10 and takes the page.
	mustExec(t, db, "INSERT INTO a (k) VALUES (7)")
	if rows, _, _ = footprintOf(t, db, page, int64(2)); fmt.Sprint(rows.All()) != "[[4]]" {
		t.Fatalf("page %v after an automatic key", rows.All())
	}
}

// TestReadFootprintCodec: an answer carrying a footprint is written as the
// structs marshal it and read back by the scanner; a request asking for one
// likewise.
func TestReadFootprintCodec(t *testing.T) {
	fp := Footprint{
		{Kind: DepKey, Table: "t", Col: "c", Val: "<x>"}, {Kind: DepKey, Table: "t", Col: "n", Val: nil},
		{Kind: DepKey, Table: "u", Col: "r", Val: 1.5}, {Kind: DepRow, Table: "v"}, {Kind: DepWhole, Table: "w"},
		{Kind: DepUpto, Table: "x", Col: "id"},
	}
	resp := wireResponse{Columns: []string{"a"}, LSN: 12, fp: fp}
	line, err := appendResponse(nil, &resp, [][]any{{int64(1)}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Rows = [][]walArg{{{Kind: "i", Value: "1"}}}
	resp.Footprint = []wireDep{
		{Table: "t", Col: "c", Val: &walArg{Kind: "t", Value: "<x>"}}, {Table: "t", Col: "n", Val: &walArg{Kind: "n"}},
		{Table: "u", Col: "r", Val: &walArg{Kind: "r", Value: "1.5"}}, {Table: "v", Row: true}, {Table: "w"},
		{Table: "x", Col: "id", Upto: true},
	}
	resp.fp = nil
	if want := append(mustMarshal(t, resp), '\n'); string(line) != string(want) {
		t.Fatalf("answer\n got %s\nwant %s", line, want)
	}
	line = line[:len(line)-1]
	got, _, ok := scanStatementResponse(line)
	if !ok {
		t.Fatalf("scanner declines %s", line)
	}
	if !reflect.DeepEqual(decodeFootprint(got.Footprint), fp) {
		t.Fatalf("decoded %+v", got.Footprint)
	}
	checkWireScan(t, line)

	// A client from before Upto: its scanner stops at the unknown "u" and
	// declines the line, and its structs read the entry as Whole — a hit
	// by any change, never a miss — and the rest as they were.
	if !bytes.Contains(line, []byte(`{"t":"x","c":"id","u":true}`)) {
		t.Fatalf("Upto not spelled {\"t\":…,\"c\":…,\"u\":true}: %s", line)
	}
	var legacy struct {
		Footprint []struct {
			Table string  `json:"t"`
			Col   string  `json:"c,omitempty"`
			Val   *walArg `json:"v,omitempty"`
			Row   bool    `json:"r,omitempty"`
		} `json:"fp"`
	}
	if err := json.Unmarshal(line, &legacy); err != nil {
		t.Fatalf("a legacy decoder fails on %s: %v", line, err)
	}
	var old []wireDep
	for _, d := range legacy.Footprint {
		old = append(old, wireDep{Table: d.Table, Col: d.Col, Val: d.Val, Row: d.Row})
	}
	want := append(fp[:len(fp)-1:len(fp)-1], Dep{Kind: DepWhole, Table: "x"})
	if got := decodeFootprint(old); !reflect.DeepEqual(got, want) {
		t.Fatalf("a legacy decoder reads %+v, want %+v", got, want)
	}

	stmt, err := appendStmt(appendReadHead(nil), "SELECT 1", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := appendBatchTail(stmt, "", "", true)
	if _, _, ok := scanStmtsRequest(req[:len(req)-1], "read"); !ok {
		t.Fatalf("scanner declines %s", req)
	}
	checkWireScan(t, req[:len(req)-1])
}
