package shard

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/kdb"
)

// cluster is an n-shard coordinator plus a single-node reference database
// fed the same statements — the oracle every scatter-gather result is
// checked against.
type cluster struct {
	coord  *Coordinator
	shards []*kdb.DB
	single *kdb.DB
}

func newCluster(t testing.TB, n int) *cluster {
	t.Helper()
	cl := &cluster{}
	var conns []kdb.Conn
	for i := 0; i < n; i++ {
		db, err := kdb.OpenWithOptions("", kdb.DBOptions{AutoIDOffset: int64(i), AutoIDStride: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		cl.shards = append(cl.shards, db)
		conns = append(conns, db)
	}
	coord, err := New(conns...)
	if err != nil {
		t.Fatal(err)
	}
	cl.coord = coord
	single, err := kdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { single.Close() })
	cl.single = single
	return cl
}

// exec applies the statement to both the sharded and the single-node
// world.
func (cl *cluster) exec(t testing.TB, sql string, args ...any) {
	t.Helper()
	if _, err := cl.coord.Exec(sql, args...); err != nil {
		t.Fatalf("coordinator %s: %v", sql, err)
	}
	if _, err := cl.single.Exec(sql, args...); err != nil {
		t.Fatalf("single %s: %v", sql, err)
	}
}

// seedEvents loads a deterministic mixed-type dataset (explicit primary
// keys so both worlds hold identical rows; halved floats so partial sums
// are exact in float64).
func (cl *cluster) seedEvents(t testing.TB, n int) {
	t.Helper()
	cl.exec(t, "CREATE TABLE ev (id INTEGER PRIMARY KEY, runid INTEGER, region TEXT, lat REAL, note TEXT)")
	regions := []string{"eu", "us", "ap", "sa"}
	for i := 1; i <= n; i++ {
		var note any
		if i%3 == 0 {
			note = fmt.Sprintf("n-%d", i%5)
		}
		var lat any = float64(i%17) * 0.5
		if i%7 == 0 {
			lat = nil
		}
		cl.exec(t, "INSERT INTO ev (id, runid, region, lat, note) VALUES (?, ?, ?, ?, ?)",
			int64(i), int64(i%6), regions[i%len(regions)], lat, note)
	}
}

// check runs the query through the coordinator and the single node and
// requires identical columns and rows.
func (cl *cluster) check(t *testing.T, sql string, args ...any) {
	t.Helper()
	got, err := cl.coord.Query(sql, args...)
	if err != nil {
		t.Fatalf("coordinator %s: %v", sql, err)
	}
	want, err := cl.single.Query(sql, args...)
	if err != nil {
		t.Fatalf("single %s: %v", sql, err)
	}
	if !reflect.DeepEqual(got.Columns, want.Columns) {
		t.Errorf("%s: columns = %v, want %v", sql, got.Columns, want.Columns)
	}
	if !reflect.DeepEqual(got.All(), want.All()) {
		t.Errorf("%s:\n got %v\nwant %v", sql, got.All(), want.All())
	}
}

func TestScatterGatherEquivalence(t *testing.T) {
	cl := newCluster(t, 4)
	cl.seedEvents(t, 60)

	queries := []struct {
		sql  string
		args []any
	}{
		{sql: "SELECT * FROM ev ORDER BY id"},
		{sql: "SELECT id, region FROM ev WHERE runid > ? ORDER BY region, id LIMIT 7", args: []any{int64(2)}},
		{sql: "SELECT region FROM ev ORDER BY id LIMIT 5"},
		{sql: "SELECT id, lat FROM ev ORDER BY lat DESC, id LIMIT 6"},
		{sql: "SELECT id, note FROM ev ORDER BY note, id"},
		{sql: "SELECT id FROM ev WHERE region = ? ORDER BY id DESC LIMIT 3", args: []any{"eu"}},
		{sql: "SELECT id FROM ev LIMIT 0"},
		{sql: "SELECT DISTINCT region FROM ev ORDER BY region"},
		{sql: "SELECT DISTINCT region FROM ev ORDER BY id"},
		{sql: "SELECT DISTINCT runid, region FROM ev ORDER BY runid, region LIMIT 9"},
		{sql: "SELECT COUNT(*) FROM ev"},
		{sql: "SELECT COUNT(note), SUM(lat), MIN(lat), MAX(lat), AVG(lat) FROM ev"},
		{sql: "SELECT COUNT(*), AVG(lat) FROM ev WHERE id > ?", args: []any{int64(1000)}},
		{sql: "SELECT region, COUNT(*), AVG(lat) FROM ev GROUP BY region"},
		{sql: "SELECT region, runid, SUM(lat) FROM ev GROUP BY region, runid LIMIT 4"},
		{sql: "SELECT region, MIN(id), MAX(lat) FROM ev WHERE lat < ? GROUP BY region", args: []any{5.0}},
		{sql: "SELECT region AS r, COUNT(*) AS n FROM ev GROUP BY region ORDER BY region"},
		{sql: "SELECT COUNT(*) FROM ev WHERE region LIKE ?", args: []any{"e%"}},
		// OFFSET regression: shards must fetch limit+offset and the
		// coordinator must skip the prefix exactly once after the merge.
		{sql: "SELECT id, region FROM ev ORDER BY id LIMIT 7 OFFSET 3"},
		{sql: "SELECT id, lat FROM ev ORDER BY lat DESC, id LIMIT 5 OFFSET 5"},
		{sql: "SELECT id FROM ev ORDER BY id OFFSET 50"},
		{sql: "SELECT id FROM ev ORDER BY id LIMIT 4 OFFSET 100"},
		{sql: "SELECT id FROM ev ORDER BY id LIMIT 0 OFFSET 2"},
		{sql: "SELECT DISTINCT region FROM ev ORDER BY region LIMIT 2 OFFSET 1"},
		{sql: "SELECT DISTINCT runid, region FROM ev ORDER BY runid, region LIMIT 6 OFFSET 4"},
		{sql: "SELECT region, COUNT(*), AVG(lat) FROM ev GROUP BY region LIMIT 2 OFFSET 1"},
		{sql: "SELECT region, runid, SUM(lat) FROM ev GROUP BY region, runid OFFSET 5"},
		{sql: "SELECT COUNT(*), AVG(lat) FROM ev LIMIT 3 OFFSET 9"},
	}
	for _, q := range queries {
		cl.check(t, q.sql, q.args...)
	}

	// Broadcast mutations keep the worlds converged.
	cl.exec(t, "UPDATE ev SET runid = ? WHERE region = ?", int64(99), "ap")
	cl.exec(t, "DELETE FROM ev WHERE lat > ?", 6.5)
	cl.check(t, "SELECT * FROM ev ORDER BY id")
	cl.check(t, "SELECT region, COUNT(*), SUM(lat) FROM ev GROUP BY region")
}

// TestScatterGatherRandomQueries holds the coordinator to a single node over
// generated queries — GROUP BY, global aggregates, DISTINCT, ORDER BY,
// OFFSET and LIMIT — on one to four shards of rows that mix INTEGER, REAL
// and TEXT columns with NULLs. The data keeps inside the merge's documented
// limits: REAL values are multiples of 0.5, so partial sums are exact in any
// association, and every plain query ends its ORDER BY with the primary key,
// so ties cannot interleave. NaN stays out: which shard's NaN comes first
// decides a MIN or MAX seeded by it (TestAggMatchesFoldOracle covers NaN in
// the fold itself).
func TestScatterGatherRandomQueries(t *testing.T) {
	for shards := 1; shards <= 4; shards++ {
		r := rand.New(rand.NewSource(int64(shards)))
		cl := newCluster(t, shards)
		cl.exec(t, "CREATE TABLE mix (id INTEGER PRIMARY KEY, k INTEGER, r REAL, s TEXT, t TEXT)")
		orNull := func(v any) any {
			if r.Intn(5) == 0 {
				return nil
			}
			return v
		}
		for id := 1; id <= 80; id++ {
			cl.exec(t, "INSERT INTO mix (id, k, r, s, t) VALUES (?, ?, ?, ?, ?)", int64(id),
				orNull(int64(r.Intn(5)-2)), orNull(float64(r.Intn(9)-4)*0.5),
				orNull([]string{"a", "b", "c"}[r.Intn(3)]), []string{"x", "y"}[r.Intn(2)])
		}
		for i := 0; i < 150; i++ {
			sql, args := randomScatterQuery(r)
			cl.check(t, sql, args...)
		}
	}
}

// randomScatterQuery draws one SELECT over the mix table of
// TestScatterGatherRandomQueries, with its arguments.
func randomScatterQuery(r *rand.Rand) (string, []any) {
	pick := func(from ...string) string { return from[r.Intn(len(from))] }
	// some draws 1..max distinct names from from, in random order.
	some := func(max int, from ...string) []string {
		perm := r.Perm(len(from))
		out := make([]string, 1+r.Intn(max))
		for i := range out {
			out[i] = from[perm[i]]
		}
		return out
	}
	aggregates := func() []string {
		out := make([]string, 1+r.Intn(3))
		for i := range out {
			if r.Intn(4) == 0 {
				out[i] = "COUNT(*)"
			} else {
				out[i] = pick("COUNT", "SUM", "AVG", "MIN", "MAX") + "(" + pick("id", "k", "r", "s", "t") + ")"
			}
		}
		return out
	}
	var where []string
	var args []any
	for n := r.Intn(3); n > 0; n-- {
		switch r.Intn(4) {
		case 0:
			where, args = append(where, "k "+pick("=", "!=", "<", ">=")+" ?"), append(args, int64(r.Intn(5)-2))
		case 1:
			where, args = append(where, "r "+pick("<=", ">", "!=")+" ?"), append(args, float64(r.Intn(9)-4)*0.5)
		case 2:
			where, args = append(where, "s "+pick("=", "!=")+" ?"), append(args, []any{"a", "b", nil}[r.Intn(3)])
		default:
			where = append(where, "t = '"+pick("x", "y")+"'")
		}
	}
	var items, tail []string
	switch r.Intn(3) {
	case 0: // grouped
		keys := some(2, "k", "r", "s", "t")
		items = append(some(len(keys), keys...), aggregates()...)
		r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		tail = append(tail, "GROUP BY "+strings.Join(keys, ", "))
	case 1: // one global aggregate row
		items = aggregates()
	default: // plain, totally ordered by the primary key last
		if r.Intn(5) == 0 {
			items = []string{"*"}
		} else {
			items = some(4, "id", "k", "r", "s", "t")
		}
		var order []string
		if r.Intn(4) > 0 {
			for _, c := range some(2, "k", "r", "s", "t") {
				order = append(order, c+pick("", " DESC"))
			}
		}
		tail = append(tail, "ORDER BY "+strings.Join(append(order, "id"+pick("", " DESC")), ", "))
	}
	sql := "SELECT "
	if r.Intn(4) == 0 {
		sql += "DISTINCT "
	}
	sql += strings.Join(items, ", ") + " FROM mix"
	if len(where) > 0 {
		sql += " WHERE " + strings.Join(where, " AND ")
	}
	if r.Intn(2) == 0 {
		tail = append(tail, fmt.Sprintf("LIMIT %d", r.Intn(6)))
	}
	if r.Intn(3) == 0 {
		tail = append(tail, fmt.Sprintf("OFFSET %d", r.Intn(5)))
	}
	if len(tail) > 0 {
		sql += " " + strings.Join(tail, " ")
	}
	return sql, args
}

// TestMergeAVGAllNullGroups pins the AVG recomposition contract: when every
// shard reports COUNT=0 for a group (all-NULL column, or a WHERE that
// matches nothing anywhere), the merged SUM/COUNT division must yield NULL —
// never 0/0 → NaN — exactly as a single node does.
func TestMergeAVGAllNullGroups(t *testing.T) {
	cl := newCluster(t, 3)
	cl.exec(t, "CREATE TABLE m (id INTEGER PRIMARY KEY, grp TEXT, v REAL)")
	for i := 1; i <= 12; i++ {
		var v any
		if i%2 == 0 {
			v = float64(i) * 0.5
		}
		grp := "mixed"
		if i%3 == 0 {
			grp, v = "allnull", nil
		}
		cl.exec(t, "INSERT INTO m (id, grp, v) VALUES (?, ?, ?)", int64(i), grp, v)
	}
	for _, q := range []string{
		"SELECT grp, AVG(v), SUM(v), COUNT(v) FROM m GROUP BY grp",
		"SELECT AVG(v) FROM m WHERE grp = 'allnull'",
		"SELECT AVG(v) FROM m WHERE grp = 'ghost'",
	} {
		cl.check(t, q)
		rows, err := cl.coord.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows.All() {
			for i, v := range row {
				if f, ok := v.(float64); ok && math.IsNaN(f) {
					t.Errorf("%s: column %d is NaN, want NULL", q, i)
				}
			}
		}
	}
}

func TestBroadcastMutationCounts(t *testing.T) {
	cl := newCluster(t, 3)
	cl.seedEvents(t, 30)
	got, err := cl.coord.Exec("UPDATE ev SET note = ? WHERE runid = ?", "x", int64(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := cl.single.Exec("UPDATE ev SET note = ? WHERE runid = ?", "x", int64(1))
	if err != nil {
		t.Fatal(err)
	}
	if got.RowsAffected != want.RowsAffected || got.RowsAffected == 0 {
		t.Errorf("broadcast UPDATE affected %d rows, want %d (nonzero)", got.RowsAffected, want.RowsAffected)
	}
	gd, err := cl.coord.Exec("DELETE FROM ev WHERE runid = ?", int64(2))
	if err != nil {
		t.Fatal(err)
	}
	wd, _ := cl.single.Exec("DELETE FROM ev WHERE runid = ?", int64(2))
	if gd.RowsAffected != wd.RowsAffected || gd.RowsAffected == 0 {
		t.Errorf("broadcast DELETE affected %d rows, want %d (nonzero)", gd.RowsAffected, wd.RowsAffected)
	}
}

// snapshotRecords returns a database's snapshot as individual record
// lines, minus the meta record (per-shard LSNs legitimately differ).
// TestShardErrorsJoinedOnce: a statement every shard refuses alike reads as
// one error, not one per shard; shards that fail differently all show.
func TestShardErrorsJoinedOnce(t *testing.T) {
	cl := newCluster(t, 3)
	cl.exec(t, "CREATE TABLE ev (id INTEGER PRIMARY KEY, v TEXT)")
	same := []struct {
		what string
		run  func() error
	}{
		{"query", func() error { _, err := cl.coord.Query("SELECT nope FROM ev"); return err }},
		{"broadcast", func() error { _, err := cl.coord.Exec("UPDATE ev SET nope = 1"); return err }},
	}
	for _, c := range same {
		err := c.run()
		if err == nil {
			t.Fatalf("%s: an unknown column was accepted", c.what)
		}
		if n := strings.Count(err.Error(), "nope"); n != 1 {
			t.Errorf("%s: the shards' one error appears %d times: %q", c.what, n, err)
		}
	}
	// One shard loses the table: two distinct errors, each once.
	if _, err := cl.shards[2].Exec("DROP TABLE ev"); err != nil {
		t.Fatal(err)
	}
	_, err := cl.coord.Query("SELECT nope FROM ev")
	if err == nil {
		t.Fatal("query: the failing shards were masked")
	}
	msg := err.Error()
	if strings.Count(msg, "nope") != 1 || strings.Count(msg, "no such table") != 1 {
		t.Errorf("two distinct shard errors should each appear once: %q", msg)
	}
}

func snapshotRecords(t testing.TB, db *kdb.DB) []string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) == 0 || bytes.Contains(line, []byte(`"meta":true`)) {
			continue
		}
		out = append(out, string(line))
	}
	return out
}

// TestShardConvergenceSmoke is the deployment-shaped convergence check:
// rows ingested through the coordinator, dumped shard by shard, must union
// to exactly the records a single node ingesting the same rows holds —
// byte-for-byte, modulo row placement.
func TestShardConvergenceSmoke(t *testing.T) {
	cl := newCluster(t, 4)
	cl.seedEvents(t, 50)
	var union []string
	for _, db := range cl.shards {
		union = append(union, snapshotRecords(t, db)...)
	}
	// Every shard repeats the broadcast DDL record; the union keeps one.
	counts := map[string]int{}
	var dedup []string
	for _, r := range union {
		counts[r]++
		if counts[r] == 1 {
			dedup = append(dedup, r)
		}
	}
	single := snapshotRecords(t, cl.single)
	sort.Strings(dedup)
	want := append([]string(nil), single...)
	sort.Strings(want)
	if !reflect.DeepEqual(dedup, want) {
		t.Fatalf("shard union diverged from single node:\n got %d records\nwant %d records\n got: %v\nwant: %v",
			len(dedup), len(want), dedup, want)
	}
	// And the rows really are spread: no shard holds everything.
	for i, db := range cl.shards {
		if n := len(snapshotRecords(t, db)); n >= len(single) {
			t.Errorf("shard %d holds %d records, union is %d — no partitioning happened", i, n, len(single))
		}
	}
}

func TestAutoIDsDisjointAcrossShards(t *testing.T) {
	cl := newCluster(t, 3)
	cl.exec(t, "CREATE TABLE runs (id INTEGER PRIMARY KEY, name TEXT)")
	seen := map[int64]int{}
	for i := 0; i < 30; i++ {
		res, err := cl.coord.Exec("INSERT INTO runs (name) VALUES (?)", fmt.Sprintf("r%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[res.LastInsertID]; dup {
			t.Fatalf("auto id %d assigned twice (inserts %d and %d)", res.LastInsertID, prev, i)
		}
		seen[res.LastInsertID] = i
	}
}

func TestBatchKeyedColocation(t *testing.T) {
	cl := newCluster(t, 4)
	cl.exec(t, "CREATE TABLE parent (id INTEGER PRIMARY KEY, name TEXT)")
	cl.exec(t, "CREATE TABLE child (id INTEGER PRIMARY KEY, pid INTEGER, v TEXT)")
	// Two batches sharing a key must land on the same shard, so the
	// child's parent reference resolves locally.
	key := HashString("campaign-7")
	var pid int64
	err := cl.coord.BatchKeyed(key, func(exec kdb.ExecFunc) error {
		res, err := exec("INSERT INTO parent (name) VALUES (?)", "p")
		if err != nil {
			return err
		}
		pid = res.LastInsertID
		_, err = exec("INSERT INTO child (pid, v) VALUES (?, ?)", pid, "c1")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.coord.BatchKeyed(key, func(exec kdb.ExecFunc) error {
		_, err := exec("INSERT INTO child (pid, v) VALUES (?, ?)", pid, "c2")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// The colocated join answers correctly through scatter-gather.
	rows, err := cl.coord.Query(
		"SELECT child.v FROM parent JOIN child ON parent.id = child.pid WHERE parent.name = ? ORDER BY child.v", "p")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.All(); len(got) != 2 || got[0][0] != "c1" || got[1][0] != "c2" {
		t.Fatalf("colocated join = %v, want [[c1] [c2]]", got)
	}
	// Exactly one shard holds the pair.
	holders := 0
	for _, db := range cl.shards {
		r, err := db.Query("SELECT COUNT(*) FROM child")
		if err != nil {
			t.Fatal(err)
		}
		if r.All()[0][0].(int64) > 0 {
			holders++
		}
	}
	if holders != 1 {
		t.Errorf("keyed batches spread across %d shards, want 1", holders)
	}
}

func TestMapParseRoundTrip(t *testing.T) {
	sp, err := ParseSpec("kdb://a:1,kdb://b:2,kdb://c:3")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Primary != "kdb://a:1" || len(sp.Replicas) != 2 {
		t.Fatalf("spec = %+v", sp)
	}
	if _, err := ParseSpec(" ,x"); err == nil {
		t.Error("empty primary accepted")
	}
	m := &Map{Epoch: 3, Shards: []Spec{sp, {Primary: "kdb://d:4"}}}
	back, err := UnmarshalMap(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, back) {
		t.Errorf("map round trip: %+v != %+v", back, m)
	}
	if _, err := UnmarshalMap([]byte(`{"epoch":1,"shards":[]}`)); err == nil {
		t.Error("empty map accepted")
	}
}
