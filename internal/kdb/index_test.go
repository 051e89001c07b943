package kdb

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCreateDropIndex(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE m (id INTEGER PRIMARY KEY, api TEXT, tasks INTEGER)")
	tbl := db.tables["m"]
	if tbl.indexOn(tbl.pkIndex) == nil {
		t.Fatal("integer primary key should get an automatic index")
	}
	mustExec(t, db, "CREATE INDEX idx_api ON m (api)")
	if tbl.indexNamed("idx_api") == nil {
		t.Fatal("named index missing after CREATE INDEX")
	}
	if _, err := db.Exec("CREATE INDEX idx_api ON m (tasks)"); err == nil {
		t.Error("duplicate index name should error")
	}
	mustExec(t, db, "CREATE INDEX IF NOT EXISTS idx_api ON m (api)") // no-op
	if _, err := db.Exec("CREATE INDEX idx_x ON missing (api)"); err == nil {
		t.Error("index on missing table should error")
	}
	if _, err := db.Exec("CREATE INDEX idx_x ON m (missing)"); err == nil {
		t.Error("index on missing column should error")
	}
	mustExec(t, db, "DROP INDEX idx_api")
	if tbl.indexNamed("idx_api") != nil {
		t.Error("index still present after DROP INDEX")
	}
	if _, err := db.Exec("DROP INDEX idx_api"); err == nil {
		t.Error("dropping a missing index should error")
	}
	mustExec(t, db, "DROP INDEX IF EXISTS idx_api") // no-op
}

// TestIndexedSelectCorrectness interleaves inserts, updates and deletes and
// checks that index-served queries stay identical to what a scan reports.
func TestIndexedSelectCorrectness(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, api TEXT, tasks INTEGER)")
	mustExec(t, db, "CREATE INDEX idx_p_api ON p (api)")
	apis := []string{"POSIX", "MPIIO", "HDF5"}
	for i := 0; i < 30; i++ {
		mustExec(t, db, "INSERT INTO p (api, tasks) VALUES (?, ?)", apis[i%3], i)
	}
	count := func(sql string, args ...any) int64 {
		row, err := db.QueryRow(sql, args...)
		if err != nil {
			t.Fatalf("QueryRow(%q): %v", sql, err)
		}
		return row[0].(int64)
	}
	if n := count("SELECT COUNT(*) FROM p WHERE api = ?", "MPIIO"); n != 10 {
		t.Errorf("indexed count = %d, want 10", n)
	}
	// Primary-key point lookup via the automatic index.
	row, err := db.QueryRow("SELECT tasks FROM p WHERE id = ?", 7)
	if err != nil || row[0] != int64(6) {
		t.Errorf("pk lookup = %v, %v", row, err)
	}
	// Mutations invalidate; the next lookup must see fresh state.
	mustExec(t, db, "UPDATE p SET api = 'POSIX' WHERE api = 'MPIIO'")
	if n := count("SELECT COUNT(*) FROM p WHERE api = ?", "MPIIO"); n != 0 {
		t.Errorf("after update, MPIIO count = %d, want 0", n)
	}
	if n := count("SELECT COUNT(*) FROM p WHERE api = ?", "POSIX"); n != 20 {
		t.Errorf("after update, POSIX count = %d, want 20", n)
	}
	mustExec(t, db, "DELETE FROM p WHERE api = ?", "HDF5")
	if n := count("SELECT COUNT(*) FROM p WHERE api = ?", "HDF5"); n != 0 {
		t.Errorf("after delete, HDF5 count = %d, want 0", n)
	}
	// Compound predicate: the index narrows, the residual filter decides.
	if n := count("SELECT COUNT(*) FROM p WHERE api = ? AND tasks > ?", "POSIX", 20); n != 6 {
		t.Errorf("compound predicate count = %d, want 6", n)
	}
	// A float literal against the integer pk still matches via coercion.
	if n := count("SELECT COUNT(*) FROM p WHERE id = 4.0"); n != 1 {
		t.Errorf("float pk literal count = %d, want 1", n)
	}
	// Inserts extend the fresh index in place.
	mustExec(t, db, "INSERT INTO p (api, tasks) VALUES ('MPIIO', 999)")
	if n := count("SELECT COUNT(*) FROM p WHERE api = ?", "MPIIO"); n != 1 {
		t.Errorf("after insert, MPIIO count = %d, want 1", n)
	}
	// UPDATE and DELETE themselves route through the index too.
	res := mustExec(t, db, "UPDATE p SET tasks = 0 WHERE id = ?", 2)
	if res.RowsAffected != 1 {
		t.Errorf("indexed update affected %d rows", res.RowsAffected)
	}
	res = mustExec(t, db, "DELETE FROM p WHERE id = ?", 2)
	if res.RowsAffected != 1 {
		t.Errorf("indexed delete affected %d rows", res.RowsAffected)
	}
}

func TestIndexedJoin(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE a (id INTEGER PRIMARY KEY, name TEXT)")
	mustExec(t, db, "CREATE TABLE b (id INTEGER PRIMARY KEY, a_id INTEGER, v INTEGER)")
	for i := 1; i <= 20; i++ {
		mustExec(t, db, "INSERT INTO a (name) VALUES (?)", "n"+string(rune('a'+i%5)))
		mustExec(t, db, "INSERT INTO b (a_id, v) VALUES (?, ?)", (i%20)+1, i)
	}
	rows := mustQuery(t, db, "SELECT a.id, b.v FROM a JOIN b ON a.id = b.a_id ORDER BY b.v")
	if rows.Len() != 20 {
		t.Fatalf("join rows = %d, want 20", rows.Len())
	}
	for rows.Next() {
		r := rows.Row()
		want := r[1].(int64)%20 + 1
		if r[0].(int64) != want {
			t.Errorf("join row %v: a.id want %d", r, want)
		}
	}
	// Joins across incompatible key types simply match nothing.
	mustExec(t, db, "CREATE TABLE c (id INTEGER PRIMARY KEY, label TEXT)")
	mustExec(t, db, "INSERT INTO c (label) VALUES ('1')")
	rows = mustQuery(t, db, "SELECT a.id FROM a JOIN c ON a.id = c.label")
	if rows.Len() != 0 {
		t.Errorf("cross-type join rows = %d, want 0", rows.Len())
	}
}

func TestIndexSurvivesCompactAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, api TEXT)")
	mustExec(t, db, "CREATE INDEX idx_p_api ON p (api)")
	mustExec(t, db, "INSERT INTO p (api) VALUES ('POSIX'), ('MPIIO')")
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	db, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl := db.tables["p"]
	if tbl.indexNamed("idx_p_api") == nil {
		t.Error("named index lost across Compact + reopen")
	}
	if tbl.indexOn(tbl.pkIndex) == nil {
		t.Error("pk index lost across Compact + reopen")
	}
	row, err := db.QueryRow("SELECT id FROM p WHERE api = ?", "MPIIO")
	if err != nil || row[0] != int64(2) {
		t.Errorf("indexed lookup after reopen = %v, %v", row, err)
	}
}

// TestCompactPreservesAutoID: deleting the max-pk row and compacting must
// not cause primary-key reuse after reopen.
func TestCompactPreservesAutoID(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, db, "INSERT INTO p (v) VALUES (1), (2), (3)")
	mustExec(t, db, "DELETE FROM p WHERE id = 3")
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	db, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	res := mustExec(t, db, "INSERT INTO p (v) VALUES (4)")
	if res.LastInsertID != 4 {
		t.Errorf("LastInsertID after compact+reopen = %d, want 4 (id 3 must not be reused)", res.LastInsertID)
	}
}

// TestCompactCrashRecovery simulates a crash mid-compaction: a stale,
// truncated .compact temp file must not confuse reopening, and the next
// Compact must replace it.
func TestCompactCrashRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, db, "INSERT INTO p (v) VALUES (10), (20)")
	db.Close()

	// A crash between temp-file creation and rename leaves partial JSON.
	tmp := path + ".compact"
	if err := os.WriteFile(tmp, []byte(`{"sql":"CREATE TAB`), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err = Open(path)
	if err != nil {
		t.Fatalf("reopen with stale temp file: %v", err)
	}
	defer db.Close()
	row, err := db.QueryRow("SELECT COUNT(*) FROM p")
	if err != nil || row[0] != int64(2) {
		t.Fatalf("data after crash recovery = %v, %v", row, err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("temp file still present after successful Compact: %v", err)
	}
	row, err = db.QueryRow("SELECT COUNT(*) FROM p")
	if err != nil || row[0] != int64(2) {
		t.Errorf("data after compact = %v, %v", row, err)
	}
}

// TestWALFailureRollsBack: when the log append fails, the in-memory state
// must not diverge from disk — the mutation is rolled back.
func TestWALFailureRollsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, v TEXT)")
	mustExec(t, db, "INSERT INTO p (v) VALUES ('keep')")

	// Sabotage the log so the next append fails.
	db.wal.Close()

	if _, err := db.Exec("INSERT INTO p (v) VALUES ('lost')"); err == nil {
		t.Fatal("insert with a broken log should error")
	}
	row, err := db.QueryRow("SELECT COUNT(*) FROM p")
	if err != nil || row[0] != int64(1) {
		t.Errorf("in-memory rows after failed insert = %v, %v (divergence!)", row, err)
	}
	res, err := db.Exec("INSERT INTO p (v) VALUES ('x')")
	if err == nil {
		t.Fatalf("second insert should also fail, got %+v", res)
	}
	// autoID must have been rolled back too: no gap corresponding to the
	// failed inserts.
	if _, err := db.Exec("UPDATE p SET v = 'changed' WHERE id = 1"); err == nil {
		t.Fatal("update with a broken log should error")
	}
	row, err = db.QueryRow("SELECT v FROM p WHERE id = 1")
	if err != nil || row[0] != "keep" {
		t.Errorf("row after failed update = %v, %v (divergence!)", row, err)
	}
	if _, err := db.Exec("DELETE FROM p WHERE id = 1"); err == nil {
		t.Fatal("delete with a broken log should error")
	}
	row, err = db.QueryRow("SELECT COUNT(*) FROM p")
	if err != nil || row[0] != int64(1) {
		t.Errorf("rows after failed delete = %v, %v (divergence!)", row, err)
	}
	if _, err := db.Exec("CREATE TABLE q (id INTEGER PRIMARY KEY)"); err == nil {
		t.Fatal("create with a broken log should error")
	}
	if len(db.Tables()) != 1 {
		t.Errorf("tables after failed create = %v", db.Tables())
	}

	// Disk agrees: reopening sees exactly the surviving state.
	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	row, err = db2.QueryRow("SELECT v FROM p WHERE id = 1")
	if err != nil || row[0] != "keep" {
		t.Errorf("disk state = %v, %v", row, err)
	}
}

// TestDistinctGroupByNoCollision: ("ab","c") and ("a","bc") must not
// collapse into one DISTINCT row or GROUP BY group.
func TestDistinctGroupByNoCollision(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, a TEXT, b TEXT)")
	mustExec(t, db, "INSERT INTO p (a, b) VALUES ('ab', 'c'), ('a', 'bc'), ('ab', 'c')")
	rows := mustQuery(t, db, "SELECT DISTINCT a, b FROM p")
	if rows.Len() != 2 {
		t.Errorf("DISTINCT rows = %d, want 2 (key collision)", rows.Len())
	}
	rows = mustQuery(t, db, "SELECT a, b, COUNT(*) FROM p GROUP BY a, b ORDER BY a")
	if rows.Len() != 2 {
		t.Fatalf("GROUP BY groups = %d, want 2 (key collision)", rows.Len())
	}
	rows.Next()
	if r := rows.Row(); r[0] != "a" || r[1] != "bc" || r[2] != int64(1) {
		t.Errorf("group 1 = %v", r)
	}
	rows.Next()
	if r := rows.Row(); r[0] != "ab" || r[1] != "c" || r[2] != int64(2) {
		t.Errorf("group 2 = %v", r)
	}
	// Numeric 1 and string "1" are distinct values, not one group.
	mustExec(t, db, "CREATE TABLE q (id INTEGER PRIMARY KEY, v TEXT, n INTEGER)")
	mustExec(t, db, "INSERT INTO q (v, n) VALUES ('1', 1), ('1', 1)")
	rows = mustQuery(t, db, "SELECT DISTINCT v, n FROM q")
	if rows.Len() != 1 {
		t.Errorf("DISTINCT mixed-type rows = %d, want 1", rows.Len())
	}
}

// TestLikeHostilePattern: many-wildcard patterns against long non-matching
// strings must complete quickly (the old recursive matcher was exponential).
func TestLikeHostilePattern(t *testing.T) {
	s := strings.Repeat("a", 3000)
	done := make(chan bool, 1)
	go func() {
		miss := likeMatch(s+"!", "%a%a%a%a%a%a%a%a%a%a%b")
		hit := likeMatch(s, "%a%a%a%a%a%a%a%a%a%a%")
		done <- !miss && hit
	}()
	select {
	case ok := <-done:
		if !ok {
			t.Error("hostile pattern matched incorrectly")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("likeMatch did not terminate in 5s — exponential backtracking")
	}
}

func TestNormalizeArgOverflow(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, v INTEGER)")
	if _, err := db.Exec("INSERT INTO p (v) VALUES (?)", uint64(math.MaxUint64)); err == nil {
		t.Error("uint64 > MaxInt64 must error, not silently go negative")
	}
	if _, err := db.Exec("INSERT INTO p (v) VALUES (?)", ^uint(0)); err == nil {
		t.Error("uint > MaxInt64 must error, not silently go negative")
	}
	row, err := db.QueryRow("SELECT COUNT(*) FROM p")
	if err != nil || row[0] != int64(0) {
		t.Errorf("rows after rejected args = %v, %v", row, err)
	}
	// The boundary value is fine.
	mustExec(t, db, "INSERT INTO p (v) VALUES (?)", uint64(math.MaxInt64))
	row, err = db.QueryRow("SELECT v FROM p WHERE id = 1")
	if err != nil || row[0] != int64(math.MaxInt64) {
		t.Errorf("boundary value = %v, %v", row, err)
	}
	// The WAL arg encoder applies the same guard.
	if _, err := encodeArgs([]any{uint64(math.MaxUint64)}); err == nil {
		t.Error("encodeArgs must reject uint64 overflow")
	}
}

func TestErrNoRows(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, v TEXT)")
	_, err := db.QueryRow("SELECT v FROM p WHERE id = 99")
	if !errors.Is(err, ErrNoRows) {
		t.Errorf("QueryRow on empty result = %v, want ErrNoRows", err)
	}
	mustExec(t, db, "INSERT INTO p (v) VALUES ('x')")
	if _, err := db.QueryRow("SELECT v FROM p WHERE id = 1"); err != nil {
		t.Errorf("QueryRow with a match: %v", err)
	}
}

func TestPlanCache(t *testing.T) {
	const sql = "SELECT id FROM plan_cache_probe WHERE id = ?"
	s1, err := parseCached(sql)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := parseCached(sql)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("parseCached returned distinct ASTs for identical SQL")
	}
	if _, err := parseCached("NOT SQL AT ALL"); err == nil {
		t.Fatal("parse error expected")
	}
	planCache.RLock()
	_, cached := planCache.m["NOT SQL AT ALL"]
	planCache.RUnlock()
	if cached {
		t.Error("parse errors must not be cached")
	}
	// Cached statements are reusable with different args.
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE plan_cache_probe (id INTEGER PRIMARY KEY)")
	mustExec(t, db, "INSERT INTO plan_cache_probe (id) VALUES (1), (2)")
	for want := int64(1); want <= 2; want++ {
		row, err := db.QueryRow(sql, want)
		if err != nil || row[0] != want {
			t.Errorf("cached plan with arg %d = %v, %v", want, row, err)
		}
	}
}

// TestConcurrentExecQueryCompact hammers one file-backed database with
// parallel mutations, indexed reads, compactions, and snapshot streaming;
// run with -race. Compact holds the writer lock for the whole
// temp-write/rename/swap sequence and WriteSnapshot serializes against it
// under the read lock, so a snapshot taken mid-compaction is always a
// consistent point-in-time state — the streaming goroutine checks that by
// parsing every stream it takes.
func TestConcurrentExecQueryCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, api TEXT, tasks INTEGER)")
	mustExec(t, db, "CREATE INDEX idx_p_api ON p (api)")
	apis := []string{"POSIX", "MPIIO", "HDF5"}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, err := db.Exec("INSERT INTO p (api, tasks) VALUES (?, ?)", apis[i%3], g*1000+i); err != nil {
					errs <- err
					return
				}
				if i%10 == 5 {
					if _, err := db.Exec("UPDATE p SET tasks = -1 WHERE api = ? AND tasks = ?", apis[g], g*1000+i); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 80; i++ {
				if _, err := db.Query("SELECT id, tasks FROM p WHERE api = ?", apis[i%3]); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := db.Compact(); err != nil {
				errs <- err
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			var buf bytes.Buffer
			if _, err := db.WriteSnapshot(&buf); err != nil {
				errs <- fmt.Errorf("snapshot %d: %w", i, err)
				return
			}
			tables, err := ParseSnapshotTables(buf.Bytes())
			if err != nil {
				errs <- fmt.Errorf("parse snapshot %d: %w", i, err)
				return
			}
			if _, ok := tables["p"]; !ok {
				errs <- fmt.Errorf("snapshot %d lost table p", i)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	row, err := db.QueryRow("SELECT COUNT(*) FROM p")
	if err != nil || row[0] != int64(120) {
		t.Fatalf("final count = %v, %v, want 120", row, err)
	}
	// The file is consistent: a fresh handle replays to the same state.
	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	row, err = db2.QueryRow("SELECT COUNT(*) FROM p")
	if err != nil || row[0] != int64(120) {
		t.Errorf("reopened count = %v, %v, want 120", row, err)
	}
}

// TestInsertPlanPerDatabase: an INSERT resolves its columns once per table,
// and what it resolved belongs to that table, not to the parsed statement
// planCache shares across databases: two databases running one INSERT text
// against differently ordered columns each store their own rows, a table
// recreated in another column order resolves again, and a table's plans stay
// bounded however many INSERT texts it sees.
func TestInsertPlanPerDatabase(t *testing.T) {
	const (
		ins   = "INSERT INTO t VALUES (?, ?)"
		named = "INSERT INTO t (n, s) VALUES (?, ?)"
	)
	a, b := memDB(t), memDB(t)
	mustExec(t, a, "CREATE TABLE t (n INTEGER, s TEXT)")
	mustExec(t, b, "CREATE TABLE t (s TEXT, n INTEGER)")
	for i := int64(1); i <= 2; i++ { // interleaved, so each plan is used after the other was made
		mustExec(t, a, ins, i, fmt.Sprint("a", i))
		mustExec(t, b, ins, fmt.Sprint("b", i), 10*i)
		mustExec(t, a, named, 100*i, fmt.Sprint("A", i))
		mustExec(t, b, named, 1000*i, fmt.Sprint("B", i))
	}
	plan := func(db *DB, sql string) []int {
		stmt, err := parseCached(sql)
		if err != nil {
			t.Fatal(err)
		}
		return db.tables["t"].inserts[stmt.(*insertStmt)]
	}
	if pa, pb := plan(a, named), plan(b, named); !slices.Equal(pa, []int{0, 1}) || !slices.Equal(pb, []int{1, 0}) {
		t.Errorf("plans of %q: %v and %v", named, pa, pb)
	}
	for _, c := range []struct {
		db   *DB
		want [][]any
	}{
		{a, [][]any{{int64(1), "a1"}, {int64(2), "a2"}, {int64(100), "A1"}, {int64(200), "A2"}}},
		{b, [][]any{{int64(10), "b1"}, {int64(20), "b2"}, {int64(1000), "B1"}, {int64(2000), "B2"}}},
	} {
		if got := mustQuery(t, c.db, "SELECT n, s FROM t ORDER BY n").All(); !slices.EqualFunc(got, c.want, slices.Equal) {
			t.Errorf("rows = %v, want %v", got, c.want)
		}
	}

	// A recreated table resolves again, named columns as well as implied ones.
	mustExec(t, a, "DROP TABLE t")
	mustExec(t, a, "CREATE TABLE t (s TEXT, x REAL, n INTEGER)")
	if _, err := a.Exec(ins, "a5", int64(5)); err == nil || !strings.Contains(err.Error(), "2 values for 3 columns") {
		t.Errorf("the old plan was used for the recreated table: %v", err)
	}
	mustExec(t, a, named, int64(6), "a6")
	mustExec(t, a, "INSERT INTO t VALUES (?, ?, ?)", "a7", 0.5, int64(7))
	if got, want := mustQuery(t, a, "SELECT n, s, x FROM t ORDER BY n").All(), [][]any{{int64(6), "a6", nil}, {int64(7), "a7", 0.5}}; !slices.EqualFunc(got, want, slices.Equal) {
		t.Errorf("after DROP + CREATE: rows = %v, want %v", got, want)
	}

	// One plan per INSERT text the table sees, up to the bound.
	for i := 0; i < 10000; i++ {
		mustExec(t, a, fmt.Sprintf("INSERT INTO t (n, s) VALUES (%d, 'spelled')", 100+i))
		if n := len(a.tables["t"].inserts); n > maxInsertPlans {
			t.Fatalf("after %d distinct INSERT texts the table holds %d plans, bound %d", i+1, n, maxInsertPlans)
		}
	}
	if row, err := a.QueryRow("SELECT COUNT(*) FROM t WHERE s = 'spelled'"); err != nil || row[0] != int64(10000) {
		t.Errorf("spelled-out inserts: %v, %v", row, err)
	}
}
