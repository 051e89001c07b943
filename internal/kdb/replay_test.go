package kdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// serialReplay is the replay loop from before it streamed, kept as the oracle
// replayFrom must equal: decode every record of data, without interning, then
// apply them in order. It returns the index of the record that failed — the
// first that does not decode, unless one before it fails to apply — or -1.
func serialReplay(db *DB, data []byte) int {
	var entries []replayEntry
	bad := -1
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		e, err := decodeRecord(&cursor{}, line)
		if err != nil {
			bad = len(entries)
			break
		}
		e.Raw = bytes.Clone(line)
		entries = append(entries, e)
	}
	for i := range entries {
		if db.replayRecord("replay", i, &entries[i]) != nil {
			return i
		}
	}
	return bad
}

var failedEntry = regexp.MustCompile(`entry (\d+)`)

// streamReplay runs data through replayFrom into a fresh database and
// returns it with the index of the record its error names, or -1.
func streamReplay(t testing.TB, data []byte) (*DB, int) {
	t.Helper()
	db := &DB{tables: map[string]*Table{}}
	err := db.replayFrom("replay", "log", bytes.NewReader(data))
	if err == nil {
		return db, -1
	}
	m := failedEntry.FindStringSubmatch(err.Error())
	if m == nil {
		t.Fatalf("replay error names no record: %v", err)
	}
	i, _ := strconv.Atoi(m[1])
	return db, i
}

// replayState is everything a replay leaves behind: the dump, the LSN, each
// table's auto-increment high-water mark, and the catch-up buffer.
type replayState struct {
	snap   string
	lsn    int64
	autoID map[string]int64
	buf    []replRecord
}

func stateOf(t testing.TB, db *DB) replayState {
	t.Helper()
	st := replayState{snap: string(snapshotBytes(t, db)), lsn: db.lsn, autoID: map[string]int64{}, buf: db.replBuf}
	for name, tbl := range db.tables {
		st.autoID[name] = tbl.autoID
	}
	return st
}

// requireSameReplay runs data through the oracle and the streaming reader
// and requires the same failing record, and where there is none, the same
// state.
func requireSameReplay(t testing.TB, name string, data []byte) {
	t.Helper()
	oracle := &DB{tables: map[string]*Table{}}
	wantBad := serialReplay(oracle, data)
	streamed, bad := streamReplay(t, data)
	if bad != wantBad {
		t.Fatalf("%s: streamed replay fails at record %d, serial at %d", name, bad, wantBad)
	}
	if bad >= 0 {
		return
	}
	got, want := stateOf(t, streamed), stateOf(t, oracle)
	switch {
	case got.snap != want.snap:
		t.Fatalf("%s: streamed replay dumps differently", name)
	case got.lsn != want.lsn:
		t.Fatalf("%s: streamed LSN %d, serial %d", name, got.lsn, want.lsn)
	case !reflect.DeepEqual(got.autoID, want.autoID):
		t.Fatalf("%s: auto-id marks %v, serial %v", name, got.autoID, want.autoID)
	case len(got.buf) != len(want.buf):
		t.Fatalf("%s: catch-up buffer holds %d records, serial %d", name, len(got.buf), len(want.buf))
	}
	for i := range got.buf {
		if got.buf[i].lsn != want.buf[i].lsn || !bytes.Equal(got.buf[i].raw, want.buf[i].raw) {
			t.Fatalf("%s: catch-up record %d is LSN %d %q, serial LSN %d %q", name, i,
				got.buf[i].lsn, got.buf[i].raw, want.buf[i].lsn, want.buf[i].raw)
		}
	}
}

// replayHistories writes logs through the engine: random histories with
// index DDL, a table dropped and created again, compactions (whose tagged
// meta record is also rewritten in its legacy untagged form) followed by
// more history, and one log longer than twice the catch-up buffer. A
// compacted log starts with a checkpoint image, which only Open reads, so
// its history is kept as text: the snapshot the image holds, then the
// records from its meta record on.
func replayHistories(t *testing.T) map[string][]byte {
	t.Helper()
	logs := map[string][]byte{}
	write := func(name string, fill func(db *DB)) []byte {
		path := filepath.Join(t.TempDir(), "h.kdb")
		db, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		fill(db)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		logs[name] = data
		return data
	}
	for seed := int64(1); seed <= 6; seed++ {
		name := fmt.Sprintf("seed %d", seed)
		var snap []byte
		var image int64
		data := write(name, func(db *DB) {
			rng := rand.New(rand.NewSource(seed))
			applyRandomOps(db, rng, 300)
			db.Exec("DROP TABLE t0")
			db.Exec("CREATE TABLE t0 (id INTEGER PRIMARY KEY, n INTEGER, r REAL, s TEXT)")
			db.Exec("INSERT INTO t0 (n, s) VALUES (?, ?)", int64(seed), "re-created\n\tafter a drop")
			if seed%2 == 0 {
				if err := db.Compact(); err != nil {
					t.Fatal(err)
				}
				snap, image = snapshotBytes(t, db), db.imageSize
				applyRandomOps(db, rng, 100)
			}
		})
		if seed%2 == 0 {
			rows := snap[:bytes.LastIndexByte(snap[:len(snap)-1], '\n')+1]
			data = append(rows, data[image:]...)
			logs[name] = data
			legacy := bytes.Replace(data, []byte(`,"meta":true}`), []byte(`}`), 1)
			if bytes.Equal(legacy, data) {
				t.Fatalf("seed %d: compacted log has no tagged meta record", seed)
			}
			logs[fmt.Sprintf("seed %d, legacy meta", seed)] = legacy
		}
	}
	write("longer than the catch-up buffer", func(db *DB) {
		mustExec(t, db, "CREATE TABLE bulk (id INTEGER PRIMARY KEY, n INTEGER, s TEXT)")
		for done := 0; done < 2*replBufCap+300; done += 1000 {
			if err := db.Batch(func(exec ExecFunc) error {
				for i := done; i < done+1000; i++ {
					if _, err := exec("INSERT INTO bulk (n, s)\n\tVALUES (?, ?)", int64(i), fmt.Sprintf("row\t%d", i)); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		applyRandomOps(db, rand.New(rand.NewSource(99)), 50)
	})
	return logs
}

// TestStreamReplayEqualsSerial: the streaming reader leaves exactly the
// state the serial decode-then-apply loop does — dump, LSN, auto-id marks
// and the catch-up buffer's LSNs and bytes.
func TestStreamReplayEqualsSerial(t *testing.T) {
	for name, data := range replayHistories(t) {
		requireSameReplay(t, name, data)
	}
}

// FuzzReplayLog holds the streaming reader to the serial oracle on
// truncated and hostile logs: the same state, or the same failing record.
func FuzzReplayLog(f *testing.F) {
	db, err := Open("")
	if err != nil {
		f.Fatal(err)
	}
	for _, op := range []randomOp{
		{sql: "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT, x REAL)"},
		{"INSERT INTO t (v, x)\n\tVALUES (?, ?)", []any{"ünï\ncode", 2.5}},
		{"INSERT INTO t (v) VALUES (?)", []any{nil}},
	} {
		if _, err := db.Exec(op.sql, op.args...); err != nil {
			f.Fatal(err)
		}
	}
	valid := snapshotBytes(f, db)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(""))
	f.Add([]byte("\n \r\n{\"sql\":\"CREATE TABLE x (id INTEGER PRIMARY KEY)\"}\r\n"))
	f.Add([]byte("{not json\n{\"sql\":\"CREATE TABLE x (id INTEGER)\"}\n"))
	f.Add([]byte("{\"sql\":\"INSERT INTO nosuch (a) VALUES (1)\"}\n{not json\n"))
	f.Add([]byte("{\"auto_ids\":{\"t\":5},\"base_lsn\":7}\n{\"meta\":true,\"base_lsn\":-1}\n"))
	f.Add([]byte(`{"sql":`)) // a record that ends where its statement should start
	// Interned statements: escaped ones that differ only in their last
	// bytes, and one the scanner declines (\/) but encoding/json reads.
	f.Add([]byte(`{"sql":"CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)"}
{"sql":"INSERT INTO t (v)\n\tVALUES ('a')"}
{"sql":"INSERT INTO t (v)\n\tVALUES ('b')"}
{"sql":"INSERT INTO t (v) VALUES ('a\/b')"}
{"sql":"INSERT INTO t (v) VALUES ('a\/b')"}
`))
	f.Fuzz(func(t *testing.T, data []byte) {
		requireSameReplay(t, "fuzzed log", data)
	})
}

// recordLines renders statements as log records, newline-terminated.
func recordLines(t *testing.T, stmts ...randomOp) []byte {
	t.Helper()
	var out []byte
	for _, st := range stmts {
		rec, err := appendRecord(out, st.sql, st.args)
		if err != nil {
			t.Fatal(err)
		}
		out = append(rec, '\n')
	}
	return out
}

// inserts is n records inserting into the table goodLog creates.
func inserts(t *testing.T, n int) []byte {
	ops := make([]randomOp, n)
	for i := range ops {
		ops[i] = randomOp{"INSERT INTO g (s)\n\tVALUES (?)", []any{fmt.Sprintf("row %d", i)}}
	}
	return recordLines(t, ops...)
}

// goodLog is a CREATE TABLE record and n inserts into it.
func goodLog(t *testing.T, n int) []byte {
	return append(recordLines(t, randomOp{sql: "CREATE TABLE g (id INTEGER PRIMARY KEY, s TEXT)"}), inserts(t, n)...)
}

// openFDs counts the process's open file descriptors, or -1 where the
// platform does not list them.
func openFDs() int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(fds)
}

// TestReplayStopsAtFirstBadRecord: a failed Open names the first record in
// file order that fails — to apply or to decode, in the first batch or a
// later one, or cut short at the end but newline-terminated (one without its
// newline is a torn write, which Open cuts off: TestTornTailIsCut) — and
// leaves no decoder running and no log handle open behind it.
func TestReplayStopsAtFirstBadRecord(t *testing.T) {
	corrupt := []byte("{not json\n")
	torn := inserts(t, 1)
	torn = append(torn[:len(torn)-8], '\n')
	cases := []struct {
		name  string
		log   []byte
		entry int
		want  string
	}{
		{"apply failure before a corrupt line",
			bytes.Join([][]byte{goodLog(t, 10), recordLines(t, randomOp{sql: "INSERT INTO nosuch (a) VALUES (1)"}), inserts(t, 3*recordBatchLen), corrupt}, nil),
			11, "no such table"},
		{"corrupt line in a later batch",
			bytes.Join([][]byte{goodLog(t, 3*recordBatchLen), corrupt, inserts(t, 10)}, nil),
			3*recordBatchLen + 1, "corrupt log"},
		{"torn last line",
			append(goodLog(t, recordBatchLen+100), torn...),
			recordBatchLen + 101, "corrupt log"},
		{"torn where the statement starts",
			append(goodLog(t, 5), `{"sql":`+"\n"...),
			6, "corrupt log"},
	}
	for _, c := range cases {
		path := filepath.Join(t.TempDir(), "bad.kdb")
		if err := os.WriteFile(path, c.log, 0o644); err != nil {
			t.Fatal(err)
		}
		goroutines, fds := runtime.NumGoroutine(), openFDs()
		db, err := Open(path)
		if err == nil {
			db.Close()
			t.Fatalf("%s: Open succeeded", c.name)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("entry %d", c.entry)) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Open error %q; want record %d, %q", c.name, err, c.entry, c.want)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > goroutines {
			t.Errorf("%s: %d goroutines after the failed Open, %d before", c.name, n, goroutines)
		}
		if n := openFDs(); n > fds {
			t.Errorf("%s: %d open files after the failed Open, %d before", c.name, n, fds)
		}
	}
}

// TestExplicitPKDuplicateRejected: an INSERT naming a primary key some row
// already holds fails, on every live path, and takes its whole write step
// with it; a log that already holds such rows still replays, and counts
// them.
func TestExplicitPKDuplicateRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pk.kdb")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
	mustExec(t, db, "INSERT INTO t (id, v) VALUES (5, 'a')")
	mustExec(t, db, "INSERT INTO t (v) VALUES ('b')") // automatic id 6
	before, lsn := snapshotBytes(t, db), db.LSN()
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "duplicate primary key") {
			t.Errorf("%s: err %v, want a duplicate primary key refusal", what, err)
		}
		if !bytes.Equal(snapshotBytes(t, db), before) || db.LSN() != lsn {
			t.Errorf("%s: the refused step changed the database", what)
		}
	}
	_, err = db.Exec("INSERT INTO t (id, v) VALUES (5, 'again')")
	refused("explicit key", err)
	_, err = db.Exec("INSERT INTO t (id, v) VALUES (?, 'auto')", int64(6))
	refused("key an automatic id took", err)
	_, err = db.Exec("INSERT INTO t (id, v) VALUES (7, 'x'), (7, 'y')")
	refused("two rows of one statement", err)
	refused("a batch", db.Batch(func(exec ExecFunc) error {
		if _, err := exec("INSERT INTO t (id, v) VALUES (8, 'fresh')"); err != nil {
			return err
		}
		_, err := exec("INSERT INTO t (id, v) VALUES (5, 'taken')")
		return err
	}))
	mustExec(t, db, "DELETE FROM t WHERE id = 5")
	mustExec(t, db, "INSERT INTO t (id, v) VALUES (5, 'reused after delete')")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// A log written before the rule: two rows under key 5.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(recordLines(t, randomOp{"INSERT INTO t (id, v) VALUES (?, ?)", []any{int64(5), "legacy duplicate"}})); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	dups := metReplayDuplicatePK.Value()
	db, err = Open(path)
	if err != nil {
		t.Fatalf("a log holding a duplicate key must still open: %v", err)
	}
	defer db.Close()
	if got := metReplayDuplicatePK.Value() - dups; got != 1 {
		t.Errorf("kdb_replay_duplicate_pk_total moved by %d, want 1", got)
	}
	if rows := queryAll(t, db, "SELECT v FROM t WHERE id = 5"); len(rows) != 2 {
		t.Errorf("replayed rows under key 5: %v, want both", rows)
	}
	_, err = db.Exec("INSERT INTO t (id, v) VALUES (5, 'third')")
	if err == nil || !strings.Contains(err.Error(), "duplicate primary key") {
		t.Errorf("after replay: err %v, want a duplicate primary key refusal", err)
	}
}

// TestUpdatePKDuplicateRejected: an UPDATE that moves a row onto a primary
// key another row holds — or gives two rows one key — fails on every live
// path and takes its whole write step with it; an UPDATE that keeps a row's
// key or moves it to a free one goes through. History that already holds
// such a move still replays and still applies on a follower, and each
// moved row is counted.
func TestUpdatePKDuplicateRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pk.kdb")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
	mustExec(t, db, "INSERT INTO t (v) VALUES ('a'), ('b'), ('c')") // ids 1, 2, 3
	mustExec(t, db, "UPDATE t SET id = 3, v = 'c2' WHERE id = 3")   // its own key
	mustExec(t, db, "UPDATE t SET id = 30 WHERE id = 3")            // a free key
	before, lsn := snapshotBytes(t, db), db.LSN()
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "duplicate primary key") {
			t.Errorf("%s: err %v, want a duplicate primary key refusal", what, err)
		}
		if !bytes.Equal(snapshotBytes(t, db), before) || db.LSN() != lsn {
			t.Errorf("%s: the refused step changed the database", what)
		}
	}
	_, err = db.Exec("UPDATE t SET id = ? WHERE id = ?", int64(1), int64(2))
	refused("onto a taken key", err)
	_, err = db.Exec("UPDATE t SET id = 7")
	refused("two rows to one key", err)
	_, err = db.Exec("UPDATE t SET id = 1, v = 'x' WHERE v != 'zzz'")
	refused("one row keeps its key, the others take it", err)
	refused("a batch", db.Batch(func(exec ExecFunc) error {
		if _, err := exec("INSERT INTO t (id, v) VALUES (8, 'fresh')"); err != nil {
			return err
		}
		_, err := exec("UPDATE t SET id = 8 WHERE id = 30")
		return err
	}))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// History written before the rule: row 2 moved onto key 1.
	legacy := recordLines(t, randomOp{"UPDATE t SET id = ? WHERE id = ?", []any{int64(1), int64(2)}})
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(legacy); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	dups := metReplayDuplicatePK.Value()
	db, err = Open(path)
	if err != nil {
		t.Fatalf("a log holding a duplicate key must still open: %v", err)
	}
	defer db.Close()
	if got := metReplayDuplicatePK.Value() - dups; got != 1 {
		t.Errorf("replay: kdb_replay_duplicate_pk_total moved by %d, want 1", got)
	}
	if rows := queryAll(t, db, "SELECT v FROM t WHERE id = 1"); len(rows) != 2 {
		t.Errorf("replayed rows under key 1: %v, want both", rows)
	}

	// A follower applies the same move as it was shipped.
	follower := memDB(t)
	var group []ReplEvent
	for i, rec := range bytes.SplitAfter(recordLines(t,
		randomOp{"CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)", nil},
		randomOp{"INSERT INTO t (v) VALUES ('a'), ('b')", nil},
		randomOp{"UPDATE t SET id = ? WHERE id = ?", []any{int64(1), int64(2)}}), []byte("\n")) {
		if len(rec) > 0 {
			group = append(group, ReplEvent{LSN: int64(i + 1), Entry: rec[:len(rec)-1]})
		}
	}
	dups = metReplayDuplicatePK.Value()
	if err := follower.ApplyRecords(group); err != nil {
		t.Fatalf("a follower must apply a shipped duplicate key: %v", err)
	}
	if got := metReplayDuplicatePK.Value() - dups; got != 1 {
		t.Errorf("follower: kdb_replay_duplicate_pk_total moved by %d, want 1", got)
	}
	if rows := queryAll(t, follower, "SELECT v FROM t WHERE id = 1"); len(rows) != 2 {
		t.Errorf("applied rows under key 1: %v, want both", rows)
	}
}
