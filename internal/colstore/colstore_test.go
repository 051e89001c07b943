package colstore

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/kdb"
)

// pair is the equivalence harness: the same data lives in a columnar-
// attached database and a plain one, and every query must come back
// byte-identical from both.
type pair struct {
	t     *testing.T
	col   *kdb.DB // store attached
	plain *kdb.DB
	store *Store
}

func newPair(t *testing.T) *pair {
	t.Helper()
	mk := func() *kdb.DB {
		db, err := kdb.Open("")
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	p := &pair{t: t, col: mk(), plain: mk()}
	p.store = Attach(p.col)
	t.Cleanup(func() {
		p.col.Close()
		p.plain.Close()
	})
	return p
}

func (p *pair) exec(sql string, args ...any) {
	p.t.Helper()
	if _, err := p.col.Exec(sql, args...); err != nil {
		p.t.Fatalf("exec on columnar db: %s: %v", sql, err)
	}
	if _, err := p.plain.Exec(sql, args...); err != nil {
		p.t.Fatalf("exec on plain db: %s: %v", sql, err)
	}
}

// check runs one query on both databases and requires identical results —
// identical column names, identical row values (reflect.DeepEqual, so
// int64 vs float64 and NaN bit-patterns all count).
func (p *pair) check(sql string, args ...any) {
	p.t.Helper()
	got, gerr := p.col.Query(sql, args...)
	want, werr := p.plain.Query(sql, args...)
	if (gerr == nil) != (werr == nil) {
		p.t.Fatalf("%s: error mismatch: columnar=%v plain=%v", sql, gerr, werr)
	}
	if werr != nil {
		return
	}
	if !reflect.DeepEqual(got.Columns, want.Columns) {
		p.t.Fatalf("%s: columns: got %v want %v", sql, got.Columns, want.Columns)
	}
	if !deepEqualNaN(got.All(), want.All()) {
		p.t.Fatalf("%s: rows:\n got %v\nwant %v", sql, got.All(), want.All())
	}
}

// deepEqualNaN is DeepEqual except NaN equals NaN (both engines producing
// NaN in the same place is an agreement, not a difference).
func deepEqualNaN(a, b [][]any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			av, bv := a[i][j], b[i][j]
			af, aok := av.(float64)
			bf, bok := bv.(float64)
			if aok && bok && math.IsNaN(af) && math.IsNaN(bf) {
				continue
			}
			if !reflect.DeepEqual(av, bv) {
				return false
			}
		}
	}
	return true
}

func seedEvents(p *pair, rows int, rng *rand.Rand) {
	p.exec(`CREATE TABLE ev (id INTEGER PRIMARY KEY, grp TEXT, region TEXT, n INTEGER, v REAL)`)
	grps := []any{"alpha", "beta", "gamma", "delta", nil}
	regions := []any{"eu", "us", "ap"}
	for i := 1; i <= rows; i++ {
		var n any = int64(rng.Intn(200) - 100)
		if rng.Intn(10) == 0 {
			n = nil
		}
		var v any = math.Round(rng.Float64()*1000) / 10
		switch rng.Intn(20) {
		case 0:
			v = nil
		case 1:
			v = math.NaN()
		}
		p.exec(`INSERT INTO ev (id, grp, region, n, v) VALUES (?, ?, ?, ?, ?)`,
			i, grps[rng.Intn(len(grps))], regions[rng.Intn(len(regions))], n, v)
	}
}

// TestByteIdenticalBattery runs a randomized analytical battery over data
// containing NULLs and NaNs, split across many small segments, and
// requires the columnar answers to match the row engine exactly.
func TestByteIdenticalBattery(t *testing.T) {
	old := segmentRows
	segmentRows = 16 // force many segments so pruning paths run
	defer func() { segmentRows = old }()

	rng := rand.New(rand.NewSource(7))
	p := newPair(t)
	seedEvents(p, 300, rng)

	aggs := []string{"COUNT(*)", "COUNT(v)", "SUM(v)", "MIN(v)", "MAX(v)", "AVG(v)",
		"COUNT(n)", "SUM(n)", "MIN(n)", "MAX(n)", "AVG(n)", "COUNT(grp)", "MIN(grp)"}
	wheres := []struct {
		sql  string
		args []any
	}{
		{"", nil},
		{" WHERE n > 0", nil},
		{" WHERE n > ? AND n < ?", []any{-50, 50}},
		{" WHERE v >= ?", []any{50.0}},
		{" WHERE grp = 'alpha'", nil},
		{" WHERE grp != ?", []any{"beta"}},
		{" WHERE region = ? AND v < ?", []any{"eu", 30.0}},
		{" WHERE v = ?", []any{nil}},        // IS NULL shape
		{" WHERE grp != ?", []any{nil}},     // IS NOT NULL shape
		{" WHERE v = ?", []any{math.NaN()}}, // NaN equality quirk
		{" WHERE n >= 1000", nil},           // nothing matches
		{" WHERE 10 < n", nil},              // value-on-left flip
	}
	for _, w := range wheres {
		for i := 0; i < 4; i++ {
			a := aggs[rng.Intn(len(aggs))]
			b := aggs[rng.Intn(len(aggs))]
			p.check("SELECT "+a+", "+b+" FROM ev"+w.sql, w.args...)
		}
		p.check("SELECT grp, COUNT(*), SUM(v), AVG(n) FROM ev"+w.sql+" GROUP BY grp", w.args...)
		p.check("SELECT region, grp, MIN(v), MAX(v) FROM ev"+w.sql+" GROUP BY region, grp", w.args...)
		p.check("SELECT n, COUNT(*) FROM ev"+w.sql+" GROUP BY n", w.args...)
		p.check("SELECT v, COUNT(*) FROM ev"+w.sql+" GROUP BY v", w.args...) // NaN/NULL keys
	}
	// LIMIT/OFFSET over grouped output, and on the global path (ignored).
	p.check("SELECT grp, COUNT(*) FROM ev GROUP BY grp LIMIT 2")
	p.check("SELECT grp, COUNT(*) FROM ev GROUP BY grp LIMIT 2 OFFSET 1")
	p.check("SELECT grp, COUNT(*) FROM ev GROUP BY grp LIMIT 0")
	p.check("SELECT grp, COUNT(*) FROM ev GROUP BY grp OFFSET 3")
	p.check("SELECT n, AVG(v) FROM ev GROUP BY n LIMIT 5 OFFSET 5")
	p.check("SELECT COUNT(*) FROM ev LIMIT 3 OFFSET 9")
	// Aliases flow through as output names.
	p.check("SELECT COUNT(*) AS c, AVG(v) AS mean FROM ev WHERE grp = 'gamma'")
	p.check("SELECT grp AS g, SUM(v) AS total FROM ev GROUP BY grp")

	if s := p.store.Stats(); s.Served == 0 {
		t.Fatalf("battery never hit the columnar path: %+v", s)
	} else {
		t.Logf("stats after battery: %+v", s)
	}
}

// TestRandomizedGeneratedQueries draws 200 query shapes from a grammar of
// parts under a fixed seed; every generated query must agree across
// engines. FuzzColumnarEqualsRowEngine widens the grammar and the data.
func TestRandomizedGeneratedQueries(t *testing.T) {
	old := segmentRows
	segmentRows = 32
	defer func() { segmentRows = old }()

	rng := rand.New(rand.NewSource(42))
	p := newPair(t)
	seedEvents(p, 500, rng)

	cols := []string{"n", "v"}
	groupables := []string{"grp", "region", "n"}
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	fns := []string{"COUNT", "SUM", "MIN", "MAX", "AVG"}
	for iter := 0; iter < 200; iter++ {
		var items []string
		nitems := 1 + rng.Intn(3)
		grouped := rng.Intn(2) == 0
		var grpCol string
		if grouped {
			grpCol = groupables[rng.Intn(len(groupables))]
			items = append(items, grpCol)
		}
		for len(items) < nitems {
			items = append(items, fmt.Sprintf("%s(%s)", fns[rng.Intn(len(fns))], cols[rng.Intn(len(cols))]))
		}
		sql := "SELECT "
		for i, it := range items {
			if i > 0 {
				sql += ", "
			}
			sql += it
		}
		sql += " FROM ev"
		var args []any
		if rng.Intn(3) > 0 {
			nf := 1 + rng.Intn(2)
			for i := 0; i < nf; i++ {
				if i == 0 {
					sql += " WHERE "
				} else {
					sql += " AND "
				}
				switch rng.Intn(3) {
				case 0:
					sql += "n " + ops[rng.Intn(len(ops))] + " ?"
					args = append(args, rng.Intn(200)-100)
				case 1:
					sql += "v " + ops[rng.Intn(len(ops))] + " ?"
					args = append(args, math.Round(rng.Float64()*1000)/10)
				default:
					sql += "grp " + []string{"=", "!="}[rng.Intn(2)] + " ?"
					args = append(args, []any{"alpha", "beta", "nosuch"}[rng.Intn(3)])
				}
			}
		}
		if grouped {
			sql += " GROUP BY " + grpCol
			if rng.Intn(3) == 0 {
				sql += fmt.Sprintf(" LIMIT %d", rng.Intn(5))
			}
			if rng.Intn(3) == 0 {
				sql += fmt.Sprintf(" OFFSET %d", rng.Intn(4))
			}
		}
		p.check(sql, args...)
	}
	if s := p.store.Stats(); s.Served == 0 {
		t.Fatal("generated battery never hit the columnar path")
	}
}

// TestFreshnessAfterMutations verifies the version-watch: mutations after
// a build must be visible to the next analytical query.
func TestFreshnessAfterMutations(t *testing.T) {
	p := newPair(t)
	p.exec(`CREATE TABLE m (id INTEGER PRIMARY KEY, k TEXT, x REAL)`)
	for i := 1; i <= 10; i++ {
		p.exec(`INSERT INTO m (id, k, x) VALUES (?, ?, ?)`, i, "a", float64(i))
	}
	p.check("SELECT SUM(x) FROM m")
	before := p.store.Stats().Rebuilds

	p.exec(`INSERT INTO m (id, k, x) VALUES (11, 'b', 100)`)
	p.check("SELECT k, SUM(x), COUNT(*) FROM m GROUP BY k")
	p.exec(`UPDATE m SET x = 0 WHERE id = 1`)
	p.check("SELECT SUM(x), MIN(x) FROM m")
	p.exec(`DELETE FROM m WHERE id = 11`)
	p.check("SELECT COUNT(*), MAX(x) FROM m")

	if after := p.store.Stats().Rebuilds; after <= before {
		t.Fatalf("mutations did not trigger rebuilds: before=%d after=%d", before, after)
	}
}

// TestDropRecreateTable pins the global version counter: dropping and
// recreating a table with different contents must never serve the old
// image, even if mutation counts happen to line up.
func TestDropRecreateTable(t *testing.T) {
	p := newPair(t)
	p.exec(`CREATE TABLE d (id INTEGER PRIMARY KEY, x INTEGER)`)
	p.exec(`INSERT INTO d (id, x) VALUES (1, 10)`)
	p.check("SELECT SUM(x) FROM d")
	p.exec(`DROP TABLE d`)
	p.exec(`CREATE TABLE d (id INTEGER PRIMARY KEY, x INTEGER)`)
	p.exec(`INSERT INTO d (id, x) VALUES (1, 99)`)
	p.check("SELECT SUM(x) FROM d")
}

// TestZoneMapSkipping checks that selective filters on a clustered column
// actually eliminate segments, and that eliminated segments do not change
// answers.
func TestZoneMapSkipping(t *testing.T) {
	old := segmentRows
	segmentRows = 64
	defer func() { segmentRows = old }()

	p := newPair(t)
	p.exec(`CREATE TABLE z (id INTEGER PRIMARY KEY, x INTEGER, lbl TEXT)`)
	// id-ordered inserts mean x = id is clustered: each segment covers a
	// disjoint range, the best case for zone maps.
	for i := 1; i <= 640; i++ {
		p.exec(`INSERT INTO z (id, x, lbl) VALUES (?, ?, ?)`, i, i, fmt.Sprintf("l%02d", i%7))
	}
	p.check("SELECT COUNT(*), SUM(x) FROM z WHERE x > 600")
	s := p.store.Stats()
	if s.SegmentsSkipped == 0 {
		t.Fatalf("selective range scan skipped no segments: %+v", s)
	}
	if s.SegmentsScanned == 0 {
		t.Fatalf("scan scanned no segments at all: %+v", s)
	}
	// Equality outside every zone skips everything.
	preSkipped := s.SegmentsSkipped
	p.check("SELECT COUNT(*) FROM z WHERE x = 100000")
	if got := p.store.Stats().SegmentsSkipped - preSkipped; got != 10 {
		t.Fatalf("out-of-range equality should skip all 10 segments, skipped %d", got)
	}
}

// TestDeclinesStayOnRowEngine verifies that non-analytical shapes never
// detour through the store, and unroutable filters fall back cleanly.
func TestDeclinesStayOnRowEngine(t *testing.T) {
	p := newPair(t)
	p.exec(`CREATE TABLE a (id INTEGER PRIMARY KEY, k TEXT, x REAL)`)
	p.exec(`CREATE TABLE b (id INTEGER PRIMARY KEY, aid INTEGER)`)
	for i := 1; i <= 5; i++ {
		p.exec(`INSERT INTO a (id, k, x) VALUES (?, ?, ?)`, i, "k", float64(i))
		p.exec(`INSERT INTO b (id, aid) VALUES (?, ?)`, i, i)
	}
	served0 := p.store.Stats().Served

	// Point lookup, plain scan, join, ORDER BY scan: none are analytic.
	p.check("SELECT x FROM a WHERE id = 3")
	p.check("SELECT id, k FROM a ORDER BY id DESC LIMIT 2")
	p.check("SELECT a.id, b.id FROM a JOIN b ON a.id = b.aid")
	if got := p.store.Stats().Served; got != served0 {
		t.Fatalf("non-analytic queries were served columnar: %d -> %d", served0, got)
	}

	// Predicates compileAnalytic itself rejects (LIKE, OR, column-vs-
	// column) never reach the store at all; they must still answer (or
	// error) identically.
	p.check("SELECT COUNT(*) FROM a WHERE k LIKE 'k%'")
	p.check("SELECT COUNT(*) FROM a WHERE id = 1 OR id = 2")
	p.check("SELECT SUM(x) FROM a WHERE x = k") // engine errors; both do
	if got := p.store.Stats().Served; got != served0 {
		t.Fatalf("unroutable predicates were served columnar: %d -> %d", served0, got)
	}

	// A routable shape the store must decline itself (type-mismatched
	// filter) registers a fallback.
	fb0 := p.store.Stats().Fallbacks
	p.check("SELECT COUNT(*) FROM a WHERE x = 'not-a-number'")
	if got := p.store.Stats().Fallbacks; got <= fb0 {
		t.Fatalf("store-level decline did not register a fallback: %d -> %d", fb0, got)
	}
}

// TestTypeMismatchFiltersDecline pins that comparisons the row engine
// rejects (text vs numeric) keep erroring identically with the store
// attached.
func TestTypeMismatchFiltersDecline(t *testing.T) {
	p := newPair(t)
	p.exec(`CREATE TABLE tm (id INTEGER PRIMARY KEY, k TEXT, x REAL)`)
	p.exec(`INSERT INTO tm (id, k, x) VALUES (1, 'a', 1.5)`)
	p.check("SELECT COUNT(*) FROM tm WHERE k = 5")   // text col, numeric lit
	p.check("SELECT COUNT(*) FROM tm WHERE x = 'a'") // numeric col, text lit
	p.check("SELECT COUNT(*) FROM tm WHERE x = ?", "a")
	p.check("SELECT SUM(x) FROM tm WHERE nosuch = 1") // unknown column
	p.check("SELECT SUM(nosuch) FROM tm")             // unknown aggregate arg
}

// TestPercentileMatchesStats compares the store's column gather against a
// hand-computed expectation.
func TestPercentileMatchesStats(t *testing.T) {
	p := newPair(t)
	p.exec(`CREATE TABLE s (id INTEGER PRIMARY KEY, v REAL)`)
	for i := 1; i <= 100; i++ {
		p.exec(`INSERT INTO s (id, v) VALUES (?, ?)`, i, float64(i))
	}
	p.exec(`INSERT INTO s (id, v) VALUES (101, ?)`, nil) // NULL ignored
	got, err := p.store.Percentile("s", "v", 50)
	if err != nil {
		t.Fatal(err)
	}
	if want := 50.5; got != want {
		t.Fatalf("P50 = %v, want %v", got, want)
	}
	vals, err := p.store.Floats("s", "v")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 100 {
		t.Fatalf("Floats returned %d values, want 100 (NULL dropped)", len(vals))
	}
	if _, err := p.store.Percentile("s", "nosuch", 50); err == nil {
		t.Fatal("want error for unknown column")
	}
	if _, err := p.store.Percentile("nosuch", "v", 50); err == nil {
		t.Fatal("want error for unknown table")
	}
}

// TestConcurrentQueriesAndWrites races analytical reads against writers;
// run under -race this checks the store's locking, and results must
// always be internally consistent (COUNT from one snapshot).
func TestConcurrentQueriesAndWrites(t *testing.T) {
	db, err := kdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	store := Attach(db)
	if _, err := db.Exec(`CREATE TABLE c (id INTEGER PRIMARY KEY, g TEXT, x REAL)`); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= 200; i++ {
			if _, err := db.Exec(`INSERT INTO c (id, g, x) VALUES (?, ?, ?)`, i, "g", float64(i)); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		rows, err := db.Query("SELECT COUNT(*), SUM(x) FROM c")
		if err != nil {
			t.Fatal(err)
		}
		r := rows.All()[0]
		n := r[0].(int64)
		if n > 0 {
			sum := r[1].(float64)
			if want := float64(n) * float64(n+1) / 2; sum != want {
				t.Fatalf("inconsistent snapshot: COUNT=%d SUM=%v want %v", n, sum, want)
			}
		}
	}
	<-done
	rows, err := db.Query("SELECT COUNT(*) FROM c")
	if err != nil {
		t.Fatal(err)
	}
	if n := rows.All()[0][0].(int64); n != 200 {
		t.Fatalf("final COUNT = %d, want 200", n)
	}
	_ = store
}

// TestDetach returns the database to pure row execution.
func TestDetach(t *testing.T) {
	p := newPair(t)
	p.exec(`CREATE TABLE x (id INTEGER PRIMARY KEY, v REAL)`)
	p.exec(`INSERT INTO x (id, v) VALUES (1, 2.5)`)
	p.check("SELECT SUM(v) FROM x")
	served := p.store.Stats().Served
	p.col.SetColumnar(nil)
	p.check("SELECT SUM(v) FROM x")
	if got := p.store.Stats().Served; got != served {
		t.Fatalf("detached store still served: %d -> %d", served, got)
	}
}
