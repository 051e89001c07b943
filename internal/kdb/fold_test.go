package kdb

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// foldQueries are the aggregating SELECTs the fold tests hold to a cold
// fold: GROUP BY over a text, an integer and a real key with NULLs, NaN and
// -0 among them; global aggregates, on f and on a table that starts empty;
// LIMIT and OFFSET over groups; WHERE with arguments, 2 and 2.0 apart; a
// WHERE that fails on any row with a text s; and a probe by index, which
// does not resume.
var foldQueries = []struct {
	sql  string
	args []any
}{
	{"SELECT g, n, COUNT(*), SUM(r), AVG(r), MIN(r), MAX(r) FROM f GROUP BY g, n", nil},
	{"SELECT r, COUNT(*), SUM(n) FROM f GROUP BY r", nil},
	{"SELECT COUNT(*), COUNT(s), SUM(r), AVG(n), MIN(n), MAX(r) FROM f", nil},
	{"SELECT COUNT(*), SUM(x), AVG(x), MIN(x), MAX(x) FROM e", nil},
	{"SELECT g, COUNT(*) FROM f GROUP BY g LIMIT 2 OFFSET 1", nil},
	{"SELECT n, SUM(r) FROM f WHERE n >= ? GROUP BY n", []any{int64(2)}},
	{"SELECT n, SUM(r) FROM f WHERE n >= ? GROUP BY n", []any{2.0}},
	{"SELECT COUNT(*) FROM f WHERE s > ?", []any{int64(0)}},
	{"SELECT g FROM f GROUP BY g", nil},
	{"SELECT COUNT(*), SUM(r) FROM f WHERE g = ?", []any{"b"}},
}

func foldDB(t testing.TB) *DB {
	t.Helper()
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for _, q := range []string{
		"CREATE TABLE f (id INTEGER PRIMARY KEY, g TEXT, n INTEGER, r REAL, s TEXT)",
		"CREATE INDEX ix_f_g ON f (g)",
		"CREATE TABLE e (id INTEGER PRIMARY KEY, x REAL)",
	} {
		if _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// exactAnswer spells an answer so that two answers read alike exactly when
// they are bit for bit the same: each cell's type and, for a real, its bits.
func exactAnswer(rows *Rows, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprint(&b, rows.Columns)
	for _, row := range rows.All() {
		b.WriteString("\n")
		for _, v := range row {
			if f, ok := v.(float64); ok {
				fmt.Fprintf(&b, "r%x ", math.Float64bits(f))
			} else {
				fmt.Fprintf(&b, "%T:%v ", v, v)
			}
		}
	}
	return b.String()
}

// coldAnswer answers the statement with every table's kept folds set aside,
// so it folds every row, then puts them back.
func coldAnswer(db *DB, sql string, args []any) string {
	db.mu.Lock()
	saved := map[*Table]map[foldKey]keptFold{}
	for _, t := range db.tables {
		saved[t], t.folds.kept = t.folds.kept, nil
	}
	db.mu.Unlock()
	ans := exactAnswer(db.Query(sql, args...))
	db.mu.Lock()
	for t, kept := range saved {
		t.folds.kept = kept
	}
	db.mu.Unlock()
	return ans
}

// foldValue draws a real that makes a fold's row order show: large and
// small magnitudes, NaN, -0, +0 and NULL.
func foldValue(rng *rand.Rand) any {
	switch rng.Intn(9) {
	case 0:
		return nil
	case 1:
		return math.NaN()
	case 2:
		return math.Copysign(0, -1)
	case 3:
		return 0.0
	case 4:
		return 1e16
	case 5:
		return -1e16
	}
	return rng.Float64()
}

// foldStep commits one random statement: appends with automatic and
// explicit keys (a text s now and then, which fails the WHERE s > 0 query
// until a rewrite removes it), an append to e, UPDATE, DELETE, an aborted
// batch, DROP + CREATE, and RestoreSnapshot of an earlier state.
func foldStep(t testing.TB, db *DB, rng *rand.Rand, snaps *[][]byte) {
	t.Helper()
	group := func() any {
		if rng.Intn(5) == 0 {
			return nil
		}
		return string(rune('a' + rng.Intn(4)))
	}
	num := func() any {
		if rng.Intn(6) == 0 {
			return nil
		}
		return int64(rng.Intn(4))
	}
	text := func() any {
		if rng.Intn(12) == 0 {
			return "t"
		}
		return nil
	}
	var err error
	switch op := rng.Intn(20); {
	case op < 9:
		_, err = db.Exec("INSERT INTO f (g, n, r, s) VALUES (?, ?, ?, ?)", group(), num(), foldValue(rng), text())
	case op == 9:
		_, err = db.Exec("INSERT INTO f (g, n, r, s) VALUES (?, ?, ?, NULL), (?, ?, ?, NULL)", group(), num(), foldValue(rng), group(), num(), foldValue(rng))
	case op == 10:
		_, err = db.Exec("INSERT INTO f (id, g, r) VALUES (?, ?, ?)", int64(1000+rng.Intn(1000)), group(), foldValue(rng))
	case op < 13:
		_, err = db.Exec("INSERT INTO e (x) VALUES (?)", foldValue(rng))
	case op == 13:
		_, err = db.Exec("UPDATE f SET r = ? WHERE n = ?", foldValue(rng), num())
	case op == 14:
		_, err = db.Exec("DELETE FROM f WHERE s = 't' OR n = ?", num())
	case op == 15:
		err = db.Batch(func(exec ExecFunc) error {
			if _, err := exec("INSERT INTO f (g, n, r) VALUES (?, ?, ?)", group(), num(), foldValue(rng)); err != nil {
				return err
			}
			return errors.New("abort")
		})
		if err == nil || err.Error() != "abort" {
			t.Fatalf("aborted batch: %v", err)
		}
		err = nil
	case op == 16:
		var buf bytes.Buffer
		if _, err = db.WriteSnapshot(&buf); err == nil {
			*snaps = append(*snaps, buf.Bytes())
		}
	case op == 17 && len(*snaps) > 0:
		err = db.RestoreSnapshot((*snaps)[rng.Intn(len(*snaps))])
	case op == 18 && rng.Intn(3) == 0:
		if _, err = db.Exec("DROP TABLE e"); err == nil {
			_, err = db.Exec("CREATE TABLE e (id INTEGER PRIMARY KEY, x REAL)")
		}
	}
	if err != nil && !strings.Contains(err.Error(), "duplicate primary key") {
		t.Fatal(err)
	}
}

// checkFolds runs every fold query twice: as the kept folds let it (resumed
// where they can) and cold, and fails on any difference.
func checkFolds(t testing.TB, db *DB, step int) {
	t.Helper()
	for _, q := range foldQueries {
		got := exactAnswer(db.Query(q.sql, q.args...))
		if want := coldAnswer(db, q.sql, q.args); got != want {
			t.Fatalf("step %d: %s %v\n resumed %s\n    cold %s", step, q.sql, q.args, got, want)
		}
	}
}

func runFoldHistory(t testing.TB, seed int64, steps int) {
	db := foldDB(t)
	rng := rand.New(rand.NewSource(seed))
	var snaps [][]byte
	for step := 0; step < steps; step++ {
		foldStep(t, db, rng, &snaps)
		checkFolds(t, db, step)
	}
}

// TestFoldResumeEqualsColdFold: across a random history of appends and
// rewrites, every aggregate answer a resumed fold gives is bit for bit the
// cold fold's, errors included — and folds did resume, and did go stale.
func TestFoldResumeEqualsColdFold(t *testing.T) {
	resumed, stale := metFolds["resumed"].Value(), metFolds["stale"].Value()
	for seed := int64(1); seed <= 4; seed++ {
		runFoldHistory(t, seed, 150)
	}
	if r, s := metFolds["resumed"].Value()-resumed, metFolds["stale"].Value()-stale; r < 1000 || s < 50 {
		t.Fatalf("%d folds resumed and %d went stale: the history exercised too little", r, s)
	}
}

// FuzzFoldResume is TestFoldResumeEqualsColdFold over fuzzed histories.
func FuzzFoldResume(f *testing.F) {
	f.Add(int64(47), uint8(60))
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		runFoldHistory(t, seed, int(steps))
	})
}

// TestFoldResumeExamines: a resumed fold reads only the appended rows, and
// says where it resumed (the span's resumed_at).
func TestFoldResumeExamines(t *testing.T) {
	db := foldDB(t)
	for i := 0; i < 10; i++ {
		mustExec(t, db, "INSERT INTO f (g, r) VALUES (?, ?)", "a", float64(i))
	}
	q := "SELECT g, SUM(r) FROM f GROUP BY g"
	stats := func() selectStats {
		qs := []pendingSelect{db.startSelect(telemetry.TraceContext{}, q, nil)}
		db.selectLocked(qs)
		return qs[0].st
	}
	if st := stats(); st.fold != "cold" || st.examined != 10 {
		t.Fatalf("first run: fold %q, examined %d", st.fold, st.examined)
	}
	mustExec(t, db, "INSERT INTO f (g, r) VALUES ('b', 1), ('a', 2)")
	if st := stats(); st.fold != "resumed" || st.resumedAt != 10 || st.examined != 2 {
		t.Fatalf("after an append: fold %q at %d, examined %d", st.fold, st.resumedAt, st.examined)
	}
	mustExec(t, db, "UPDATE f SET r = 0 WHERE g = 'b'")
	if st := stats(); st.fold != "stale" || st.examined != 12 {
		t.Fatalf("after a rewrite: fold %q, examined %d", st.fold, st.examined)
	}
}

// TestFoldMemoBounds: a table keeps at most maxFolds folds, and none with
// more than maxFoldGroups groups.
func TestFoldMemoBounds(t *testing.T) {
	db := foldDB(t)
	for i := 0; i <= maxFoldGroups; i++ {
		mustExec(t, db, "INSERT INTO f (n, r) VALUES (?, 1.5)", int64(i))
	}
	for i := 0; i < 2*maxFolds; i++ {
		if _, err := db.Query("SELECT COUNT(*) FROM f WHERE n > ?", int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Query("SELECT n, COUNT(*) FROM f GROUP BY n"); err != nil {
		t.Fatal(err)
	}
	kept := db.tables["f"].folds.kept
	if len(kept) != maxFolds {
		t.Fatalf("%d folds kept, want %d", len(kept), maxFolds)
	}
	for k := range kept {
		if len(k.s.GroupBy) > 0 {
			t.Fatalf("a fold of %d groups was kept", maxFoldGroups+1)
		}
	}
}

// TestFoldResumeConcurrentAppends: readers resume a fold while a writer
// appends; every answer is the cold fold of the rows it counted, summed in
// append order (the race detector runs this package).
func TestFoldResumeConcurrentAppends(t *testing.T) {
	db := foldDB(t)
	const n = 400
	vals := make([]float64, n)
	rng := rand.New(rand.NewSource(47))
	for i := range vals {
		vals[i] = []float64{1e16, 1, -1e16, rng.Float64()}[rng.Intn(4)]
	}
	// prefix[c] is the cold fold's SUM over the first c rows.
	prefix := make([]float64, n+1)
	for i, v := range vals {
		prefix[i+1] = prefix[i] + v
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				row, err := db.QueryRow("SELECT COUNT(*), SUM(r) FROM f")
				if err != nil {
					t.Error(err)
					return
				}
				c := row[0].(int64)
				if sum, _ := row[1].(float64); c > 0 && math.Float64bits(sum) != math.Float64bits(prefix[c]) {
					t.Errorf("%d rows: SUM %v, cold fold %v", c, sum, prefix[c])
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for _, v := range vals {
		mustExec(t, db, "INSERT INTO f (r) VALUES (?)", v)
	}
	close(done)
	wg.Wait()
}

// BenchmarkAggregateAfterAppend runs a GROUP BY over 10k and 100k rows
// with one append before each execution: resumed folds the appended row
// into the kept groups, cold folds every row (the kept fold is dropped
// first, as a rewrite would make it stale).
func BenchmarkAggregateAfterAppend(b *testing.B) {
	for _, rows := range []int{10_000, 100_000} {
		for _, mode := range []string{"resumed", "cold"} {
			b.Run(fmt.Sprintf("rows=%d/%s", rows, mode), func(b *testing.B) {
				db := foldDB(b)
				if err := db.Batch(func(exec ExecFunc) error {
					for i := 0; i < rows; i++ {
						if _, err := exec("INSERT INTO f (g, n, r) VALUES (?, ?, ?)", string(rune('a'+i%8)), int64(i%5), float64(i)/7); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					b.Fatal(err)
				}
				q := "SELECT g, COUNT(*), AVG(r), MAX(r) FROM f GROUP BY g"
				f := db.tables["f"]
				if _, err := db.Query(q); err != nil { // the first fold is cold
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := db.Exec("INSERT INTO f (g, n, r) VALUES ('a', 1, 2.5)"); err != nil {
						b.Fatal(err)
					}
					if mode == "cold" {
						f.folds.mu.Lock()
						f.folds.kept = nil
						f.folds.mu.Unlock()
					}
					if rows, err := db.Query(q); err != nil || rows.Len() != 8 {
						b.Fatalf("%v, %v", rows, err)
					}
				}
			})
		}
	}
}
