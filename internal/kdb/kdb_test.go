package kdb

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
)

func mustExec(t *testing.T, db *DB, sql string, args ...any) Result {
	t.Helper()
	res, err := db.Exec(sql, args...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func mustQuery(t *testing.T, db *DB, sql string, args ...any) *Rows {
	t.Helper()
	rows, err := db.Query(sql, args...)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return rows
}

func memDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCreateInsertSelect(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE performances (id INTEGER PRIMARY KEY, command TEXT, api TEXT, tasks INTEGER)")
	res := mustExec(t, db, "INSERT INTO performances (command, api, tasks) VALUES (?, ?, ?)", "ior -a mpiio", "MPIIO", 80)
	if res.LastInsertID != 1 || res.RowsAffected != 1 {
		t.Errorf("insert result = %+v", res)
	}
	res = mustExec(t, db, "INSERT INTO performances (command, api, tasks) VALUES ('ior -a posix', 'POSIX', 40)")
	if res.LastInsertID != 2 {
		t.Errorf("auto id = %d", res.LastInsertID)
	}
	rows := mustQuery(t, db, "SELECT id, command, tasks FROM performances WHERE api = ? ORDER BY id", "MPIIO")
	if rows.Len() != 1 {
		t.Fatalf("rows = %d", rows.Len())
	}
	rows.Next()
	got := rows.Row()
	if got[0] != int64(1) || got[1] != "ior -a mpiio" || got[2] != int64(80) {
		t.Errorf("row = %v", got)
	}
	if !reflect.DeepEqual(rows.Columns, []string{"id", "command", "tasks"}) {
		t.Errorf("columns = %v", rows.Columns)
	}
}

func TestSelectStar(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b TEXT, c REAL)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 'x', 2.5)")
	rows := mustQuery(t, db, "SELECT * FROM t")
	if !reflect.DeepEqual(rows.Columns, []string{"a", "b", "c"}) {
		t.Errorf("columns = %v", rows.Columns)
	}
	rows.Next()
	if !reflect.DeepEqual(rows.Row(), []any{int64(1), "x", 2.5}) {
		t.Errorf("row = %v", rows.Row())
	}
}

func TestMultiRowInsert(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	res := mustExec(t, db, "INSERT INTO t VALUES (1), (2), (3)")
	if res.RowsAffected != 3 {
		t.Errorf("affected = %d", res.RowsAffected)
	}
	row, err := db.QueryRow("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if row[0] != int64(3) {
		t.Errorf("count = %v", row[0])
	}
}

func TestWhereOperators(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE t (n INTEGER, s TEXT)")
	for i := 1; i <= 10; i++ {
		mustExec(t, db, "INSERT INTO t VALUES (?, ?)", i, fmt.Sprintf("row%d", i))
	}
	cases := []struct {
		where string
		args  []any
		want  int
	}{
		{"n = 5", nil, 1},
		{"n != 5", nil, 9},
		{"n <> 5", nil, 9},
		{"n < 3", nil, 2},
		{"n <= 3", nil, 3},
		{"n > 8", nil, 2},
		{"n >= 8", nil, 3},
		{"n > 2 AND n < 5", nil, 2},
		{"n < 3 OR n > 8", nil, 4},
		{"NOT n = 1", nil, 9},
		{"(n < 3 OR n > 8) AND n != 1", nil, 3},
		{"s LIKE 'row1%'", nil, 2}, // row1, row10
		{"s LIKE 'row_'", nil, 9},  // row1..row9
		{"n = ?", []any{7}, 1},
		{"n > ? AND n < ?", []any{2, 6}, 3},
	}
	for _, c := range cases {
		rows := mustQuery(t, db, "SELECT n FROM t WHERE "+c.where, c.args...)
		if rows.Len() != c.want {
			t.Errorf("WHERE %s: %d rows, want %d", c.where, rows.Len(), c.want)
		}
	}
}

// TestLikeOverNull: LIKE gives a NULL operand, on either side, the "no
// match" verdict the other comparisons give it, so a scan that meets a NULL
// cell goes on; a non-text operand that is not NULL is still an error.
func TestLikeOverNull(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE t (n INTEGER, s TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 'x1'), (2, NULL), (3, 'y3'), (4, 'x4')")
	cases := []struct {
		where string
		args  []any
		want  int
	}{
		{"s LIKE 'x%'", nil, 2},
		{"NOT s LIKE 'x%'", nil, 2}, // y3, and the NULL cell's "no match" negated
		{"s LIKE ?", []any{nil}, 0},
		{"s LIKE 'x%' OR n = 2", nil, 3},
	}
	for _, c := range cases {
		rows, err := db.Query("SELECT n FROM t WHERE "+c.where, c.args...)
		if err != nil {
			t.Errorf("WHERE %s: %v", c.where, err)
			continue
		}
		if rows.Len() != c.want {
			t.Errorf("WHERE %s: %d rows, want %d", c.where, rows.Len(), c.want)
		}
	}
	if _, err := db.Query("SELECT n FROM t WHERE n LIKE '1%'"); err == nil {
		t.Error("LIKE over an INTEGER column should still fail")
	}
}

func TestOrderByLimit(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE t (n INTEGER, r REAL)")
	for _, n := range []int{3, 1, 4, 1, 5} {
		mustExec(t, db, "INSERT INTO t VALUES (?, ?)", n, float64(n)*1.5)
	}
	rows := mustQuery(t, db, "SELECT n FROM t ORDER BY n")
	var got []int64
	for rows.Next() {
		got = append(got, rows.Row()[0].(int64))
	}
	if !reflect.DeepEqual(got, []int64{1, 1, 3, 4, 5}) {
		t.Errorf("asc = %v", got)
	}
	rows = mustQuery(t, db, "SELECT n FROM t ORDER BY n DESC LIMIT 2")
	got = nil
	for rows.Next() {
		got = append(got, rows.Row()[0].(int64))
	}
	if !reflect.DeepEqual(got, []int64{5, 4}) {
		t.Errorf("desc limit = %v", got)
	}
	rows = mustQuery(t, db, "SELECT n FROM t LIMIT 0")
	if rows.Len() != 0 {
		t.Errorf("limit 0 = %d rows", rows.Len())
	}
}

func TestAggregates(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE r (bw REAL)")
	for _, v := range []float64{2850, 1251, 2840, 2860} {
		mustExec(t, db, "INSERT INTO r VALUES (?)", v)
	}
	row, err := db.QueryRow("SELECT COUNT(*), MIN(bw), MAX(bw), AVG(bw), SUM(bw) FROM r")
	if err != nil {
		t.Fatal(err)
	}
	if row[0] != int64(4) || row[1] != 1251.0 || row[2] != 2860.0 {
		t.Errorf("count/min/max = %v", row)
	}
	if avg := row[3].(float64); avg < 2450 || avg > 2451 {
		t.Errorf("avg = %v", avg)
	}
	if row[4] != 9801.0 {
		t.Errorf("sum = %v", row[4])
	}
	// Aggregate with WHERE.
	row, _ = db.QueryRow("SELECT COUNT(*) FROM r WHERE bw > 2000")
	if row[0] != int64(3) {
		t.Errorf("filtered count = %v", row[0])
	}
	// Alias.
	rows := mustQuery(t, db, "SELECT AVG(bw) AS meanbw FROM r")
	if rows.Columns[0] != "meanbw" {
		t.Errorf("alias = %v", rows.Columns)
	}
	// Aggregate over empty set.
	row, _ = db.QueryRow("SELECT MIN(bw) FROM r WHERE bw > 99999")
	if row[0] != nil {
		t.Errorf("min of empty = %v", row[0])
	}
}

func TestJoin(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE performances (id INTEGER PRIMARY KEY, command TEXT)")
	mustExec(t, db, "CREATE TABLE summaries (id INTEGER PRIMARY KEY, performance_id INTEGER, operation TEXT, mean_mib REAL)")
	mustExec(t, db, "INSERT INTO performances (command) VALUES ('ior A'), ('ior B')")
	mustExec(t, db, "INSERT INTO summaries (performance_id, operation, mean_mib) VALUES (1, 'write', 2850), (1, 'read', 3720), (2, 'write', 900)")
	rows := mustQuery(t, db, `SELECT performances.command, summaries.operation, summaries.mean_mib
		FROM performances JOIN summaries ON performances.id = summaries.performance_id
		WHERE summaries.operation = 'write' ORDER BY summaries.mean_mib DESC`)
	if rows.Len() != 2 {
		t.Fatalf("join rows = %d", rows.Len())
	}
	rows.Next()
	if r := rows.Row(); r[0] != "ior A" || r[2] != 2850.0 {
		t.Errorf("first join row = %v", r)
	}
	rows.Next()
	if r := rows.Row(); r[0] != "ior B" {
		t.Errorf("second join row = %v", r)
	}
	// INNER JOIN spelling.
	rows = mustQuery(t, db, "SELECT command FROM performances INNER JOIN summaries ON performances.id = summaries.performance_id")
	if rows.Len() != 3 {
		t.Errorf("inner join rows = %d", rows.Len())
	}
}

func TestUpdateDelete(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, s TEXT, n INTEGER)")
	mustExec(t, db, "INSERT INTO t (s, n) VALUES ('a', 1), ('b', 2), ('c', 3)")
	res := mustExec(t, db, "UPDATE t SET s = ?, n = ? WHERE id = 2", "B", 20)
	if res.RowsAffected != 1 {
		t.Errorf("update affected = %d", res.RowsAffected)
	}
	row, _ := db.QueryRow("SELECT s, n FROM t WHERE id = 2")
	if row[0] != "B" || row[1] != int64(20) {
		t.Errorf("updated row = %v", row)
	}
	res = mustExec(t, db, "DELETE FROM t WHERE n < 20")
	if res.RowsAffected != 2 {
		t.Errorf("delete affected = %d", res.RowsAffected)
	}
	row, _ = db.QueryRow("SELECT COUNT(*) FROM t")
	if row[0] != int64(1) {
		t.Errorf("remaining = %v", row[0])
	}
	// Update all rows (no WHERE).
	mustExec(t, db, "UPDATE t SET n = 0")
	row, _ = db.QueryRow("SELECT n FROM t")
	if row[0] != int64(0) {
		t.Errorf("n = %v", row[0])
	}
}

func TestDistinct(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE t (s TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES ('x'), ('y'), ('x')")
	rows := mustQuery(t, db, "SELECT DISTINCT s FROM t ORDER BY s")
	if rows.Len() != 2 {
		t.Errorf("distinct rows = %d", rows.Len())
	}
}

func TestNullHandling(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, v REAL)")
	mustExec(t, db, "INSERT INTO t (v) VALUES (NULL), (1.5)")
	rows := mustQuery(t, db, "SELECT v FROM t WHERE v > 0")
	if rows.Len() != 1 {
		t.Errorf("null comparison leaked: %d rows", rows.Len())
	}
	rows = mustQuery(t, db, "SELECT v FROM t ORDER BY v")
	rows.Next()
	if rows.Row()[0] != nil {
		t.Error("NULL should order first")
	}
	// COUNT(col) skips NULLs, COUNT(*) does not.
	row, _ := db.QueryRow("SELECT COUNT(v), COUNT(*) FROM t")
	if row[0] != int64(1) || row[1] != int64(2) {
		t.Errorf("counts = %v", row)
	}
}

func TestTypeCoercion(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE t (i INTEGER, r REAL, s TEXT)")
	// int into REAL is fine; whole float into INTEGER is fine.
	mustExec(t, db, "INSERT INTO t VALUES (?, ?, ?)", 3.0, 4, "ok")
	row, _ := db.QueryRow("SELECT i, r, s FROM t")
	if row[0] != int64(3) || row[1] != 4.0 || row[2] != "ok" {
		t.Errorf("coerced row = %v", row)
	}
	if _, err := db.Exec("INSERT INTO t (i) VALUES (?)", 3.5); err == nil {
		t.Error("fractional into INTEGER should fail")
	}
	if _, err := db.Exec("INSERT INTO t (s) VALUES (?)", 7); err == nil {
		t.Error("int into TEXT should fail")
	}
	if _, err := db.Exec("INSERT INTO t (r) VALUES (?)", "x"); err == nil {
		t.Error("text into REAL should fail")
	}
}

func TestErrors(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	cases := []string{
		"SELEC * FROM t",
		"SELECT * FROM missing",
		"SELECT nope FROM t",
		"INSERT INTO missing VALUES (1)",
		"INSERT INTO t (nope) VALUES (1)",
		"INSERT INTO t VALUES (1, 2)",
		"CREATE TABLE t (a INTEGER)",
		"CREATE TABLE u (a INTEGER, a TEXT)",
		"CREATE TABLE v (a TEXT PRIMARY KEY)",
		"CREATE TABLE w (a INTEGER PRIMARY KEY, b INTEGER PRIMARY KEY)",
		"DROP TABLE missing",
		"DELETE FROM missing",
		"UPDATE missing SET a = 1",
		"UPDATE t SET nope = 1",
		"SELECT * FROM t WHERE a = 'x' AND",
		"SELECT * FROM t LIMIT -1",
		"SELECT MIN(*) FROM t",
		"SELECT a FROM t WHERE a = ? trailing",
		"SELECT * FROM t JOIN missing ON t.a = missing.b",
	}
	for _, sql := range cases {
		if _, qerr := db.Query(sql); qerr == nil {
			if _, eerr := db.Exec(sql); eerr == nil {
				t.Errorf("%q should fail", sql)
			}
		}
	}
	if _, err := db.Exec("SELECT * FROM t"); err == nil {
		t.Error("Exec(SELECT) should fail")
	}
	if _, err := db.Query("DELETE FROM t"); err == nil {
		t.Error("Query(DELETE) should fail")
	}
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	if _, err := db.Query("SELECT a FROM t WHERE a = ?"); err == nil {
		t.Error("missing placeholder arg should fail")
	}
	if _, err := db.QueryRow("SELECT a FROM t WHERE a = 99"); err == nil {
		t.Error("QueryRow on empty result should fail")
	}
}

func TestIfNotExistsAndIfExists(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "CREATE TABLE IF NOT EXISTS t (a INTEGER)")
	mustExec(t, db, "DROP TABLE IF EXISTS missing")
	mustExec(t, db, "DROP TABLE t")
	if got := db.Tables(); len(got) != 0 {
		t.Errorf("tables = %v", got)
	}
}

func TestStringEscapes(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE t (s TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES ('it''s')")
	row, _ := db.QueryRow("SELECT s FROM t")
	if row[0] != "it's" {
		t.Errorf("escaped string = %q", row[0])
	}
	if _, err := db.Exec("INSERT INTO t VALUES ('unterminated)"); err == nil {
		t.Error("unterminated string should fail")
	}
}

func TestSchemaIntrospection(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, score REAL)")
	var cols []ColumnDef
	var missing bool
	db.View(func(v *View) error {
		if tv, ok := v.Table("t"); ok {
			cols = append(cols, tv.Columns()...)
		}
		_, found := v.Table("missing")
		missing = !found
		return nil
	})
	want := []ColumnDef{
		{Name: "id", Type: TInteger, PrimaryKey: true},
		{Name: "name", Type: TText},
		{Name: "score", Type: TReal},
	}
	if !reflect.DeepEqual(cols, want) {
		t.Errorf("schema = %+v", cols)
	}
	if !missing {
		t.Error("a missing table should not be found")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE performances (id INTEGER PRIMARY KEY, command TEXT, bw REAL)")
	mustExec(t, db, "INSERT INTO performances (command, bw) VALUES (?, ?)", "ior -a mpiio", 2850.5)
	mustExec(t, db, "INSERT INTO performances (command, bw) VALUES (?, ?)", "ior -a posix", 1251.25)
	mustExec(t, db, "UPDATE performances SET bw = ? WHERE id = 2", 1300.0)
	mustExec(t, db, "DELETE FROM performances WHERE command LIKE '%posix%' AND bw > 9999")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rows := mustQuery(t, db2, "SELECT id, command, bw FROM performances ORDER BY id")
	if rows.Len() != 2 {
		t.Fatalf("reopened rows = %d", rows.Len())
	}
	rows.Next()
	if r := rows.Row(); r[0] != int64(1) || r[1] != "ior -a mpiio" || r[2] != 2850.5 {
		t.Errorf("row 1 = %v", r)
	}
	rows.Next()
	if r := rows.Row(); r[2] != 1300.0 {
		t.Errorf("row 2 = %v", r)
	}
	// Auto-increment continues after reopen.
	res := mustExec(t, db2, "INSERT INTO performances (command, bw) VALUES ('x', 1)")
	if res.LastInsertID != 3 {
		t.Errorf("id after reopen = %d", res.LastInsertID)
	}
}

func TestCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, v REAL)")
	for i := 0; i < 50; i++ {
		mustExec(t, db, "INSERT INTO t (v) VALUES (?)", float64(i))
	}
	mustExec(t, db, "DELETE FROM t WHERE id > 10")
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	// Still usable after compaction.
	mustExec(t, db, "INSERT INTO t (v) VALUES (?)", 123.0)
	db.Close()

	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	row, _ := db2.QueryRow("SELECT COUNT(*) FROM t")
	if row[0] != int64(11) {
		t.Errorf("compacted count = %v", row[0])
	}
	row, _ = db2.QueryRow("SELECT v FROM t WHERE v = 123.0")
	if row[0] != 123.0 {
		t.Errorf("post-compact insert lost: %v", row)
	}
	if err := memDB(t).Compact(); err == nil {
		t.Error("in-memory compact should fail")
	}
}

func TestCorruptLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.db")
	if err := writeFile(path, "{\"sql\": \"CREATE TABLE t (a INTEGER)\"}\nnot json\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Error("corrupt log should fail to open")
	}
	if err := writeFile(path, "{\"sql\": \"BOGUS SQL\"}\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Error("log with bogus SQL should fail to open")
	}
}

func writeFile(path, content string) error {
	return writeFileBytes(path, []byte(content))
}

func writeFileBytes(path string, b []byte) error {
	f, err := createFile(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Property: values inserted through placeholders come back unchanged for
// all three column types.
func TestInsertSelectRoundTripProperty(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, i INTEGER, r REAL, s TEXT)")
	n := 0
	f := func(i int64, r float64, s string) bool {
		if r != r || len(s) > 10000 { // NaN never equals itself
			return true
		}
		n++
		res, err := db.Exec("INSERT INTO t (i, r, s) VALUES (?, ?, ?)", i, r, s)
		if err != nil {
			return false
		}
		row, err := db.QueryRow("SELECT i, r, s FROM t WHERE id = ?", res.LastInsertID)
		if err != nil {
			return false
		}
		return row[0] == i && row[1] == r && row[2] == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if n == 0 {
		t.Fatal("property never exercised")
	}
}

// Property: ORDER BY produces a sorted column.
func TestOrderBySortedProperty(t *testing.T) {
	f := func(vals []int16) bool {
		db, _ := Open("")
		if _, err := db.Exec("CREATE TABLE t (n INTEGER)"); err != nil {
			return false
		}
		for _, v := range vals {
			if _, err := db.Exec("INSERT INTO t VALUES (?)", int64(v)); err != nil {
				return false
			}
		}
		rows, err := db.Query("SELECT n FROM t ORDER BY n")
		if err != nil {
			return false
		}
		var prev int64 = -1 << 62
		for rows.Next() {
			v := rows.Row()[0].(int64)
			if v < prev {
				return false
			}
			prev = v
		}
		return rows.Len() == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "h___lo", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"HELLO", "hello", true}, // case-insensitive
		{"ior -a mpiio", "%mpiio%", true},
		{"ior -a posix", "%mpiio%", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER)")
	done := make(chan error, 8)
	for g := 0; g < 4; g++ {
		go func(g int) {
			var err error
			for i := 0; i < 100; i++ {
				if _, e := db.Exec("INSERT INTO t (n) VALUES (?)", g*1000+i); e != nil {
					err = e
					break
				}
			}
			done <- err
		}(g)
		go func() {
			var err error
			for i := 0; i < 100; i++ {
				if _, e := db.Query("SELECT COUNT(*) FROM t"); e != nil {
					err = e
					break
				}
			}
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	row, _ := db.QueryRow("SELECT COUNT(*) FROM t")
	if row[0] != int64(400) {
		t.Errorf("count = %v, want 400", row[0])
	}
}

func createFile(path string) (*os.File, error) { return os.Create(path) }

func TestGroupBy(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE s (performance_id INTEGER, operation TEXT, bw REAL)")
	rows := [][]any{
		{1, "write", 2850.0}, {1, "write", 1251.0}, {1, "read", 3720.0},
		{2, "write", 900.0}, {2, "read", 1500.0}, {2, "read", 1600.0},
	}
	for _, r := range rows {
		mustExec(t, db, "INSERT INTO s VALUES (?, ?, ?)", r...)
	}
	res := mustQuery(t, db, "SELECT operation, COUNT(*), AVG(bw) AS meanbw FROM s GROUP BY operation")
	if res.Len() != 2 {
		t.Fatalf("groups = %d", res.Len())
	}
	if !reflect.DeepEqual(res.Columns, []string{"operation", "count(*)", "meanbw"}) {
		t.Errorf("columns = %v", res.Columns)
	}
	res.Next()
	first := res.Row() // "read" sorts before "write"
	if first[0] != "read" || first[1] != int64(3) {
		t.Errorf("first group = %v", first)
	}
	res.Next()
	second := res.Row()
	if second[0] != "write" || second[1] != int64(3) {
		t.Errorf("second group = %v", second)
	}
	if avg := second[2].(float64); avg < 1667-1 || avg > 1667+1 {
		t.Errorf("write avg = %v", avg)
	}
	// Multi-column grouping.
	res = mustQuery(t, db, "SELECT performance_id, operation, MAX(bw) FROM s GROUP BY performance_id, operation")
	if res.Len() != 4 {
		t.Errorf("multi-key groups = %d", res.Len())
	}
	// WHERE before grouping.
	res = mustQuery(t, db, "SELECT operation, COUNT(*) FROM s WHERE bw > 1400 GROUP BY operation")
	res.Next()
	if r := res.Row(); r[0] != "read" || r[1] != int64(3) {
		t.Errorf("filtered group = %v", r)
	}
	// LIMIT applies to groups.
	res = mustQuery(t, db, "SELECT operation, COUNT(*) FROM s GROUP BY operation LIMIT 1")
	if res.Len() != 1 {
		t.Errorf("limited groups = %d", res.Len())
	}
}

func TestGroupByErrors(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE s (a INTEGER, b REAL)")
	mustExec(t, db, "INSERT INTO s VALUES (1, 2.0)")
	bad := []string{
		"SELECT b FROM s GROUP BY a",         // b not grouped/aggregated
		"SELECT * FROM s GROUP BY a",         // star invalid
		"SELECT a FROM s GROUP BY nope",      // unknown group column
		"SELECT MIN(nope) FROM s GROUP BY a", // unknown aggregate column
	}
	for _, sql := range bad {
		if _, err := db.Query(sql); err == nil {
			t.Errorf("%q should fail", sql)
		}
	}
}

func TestGroupByNulls(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE s (k TEXT, v REAL)")
	mustExec(t, db, "INSERT INTO s VALUES ('a', NULL), ('a', 2.0), ('b', NULL)")
	res := mustQuery(t, db, "SELECT k, COUNT(v), AVG(v) FROM s GROUP BY k")
	res.Next()
	if r := res.Row(); r[0] != "a" || r[1] != int64(1) || r[2] != 2.0 {
		t.Errorf("group a = %v", r)
	}
	res.Next()
	if r := res.Row(); r[0] != "b" || r[1] != int64(0) || r[2] != nil {
		t.Errorf("group b = %v", r)
	}
}

// Property: the parser never panics and always returns a statement or an
// error for arbitrary input.
func TestParseNeverPanicsProperty(t *testing.T) {
	f := func(input string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = parse(input)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// Targeted near-miss inputs.
	nearMisses := []string{
		"SELECT", "SELECT *", "SELECT * FROM", "SELECT * FROM t WHERE",
		"INSERT INTO", "INSERT INTO t VALUES", "INSERT INTO t VALUES (",
		"CREATE TABLE t (", "CREATE TABLE t (a", "UPDATE t SET",
		"DELETE FROM t WHERE (", "SELECT a FROM t GROUP", "SELECT a FROM t ORDER",
		"SELECT COUNT( FROM t", ";", "(((((", "''''", "?????",
	}
	for _, in := range nearMisses {
		func() {
			defer func() {
				if recover() != nil {
					t.Errorf("parse(%q) panicked", in)
				}
			}()
			_, _ = parse(in)
		}()
	}
}
