package kdb

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func openFile(t *testing.T, path string) *DB {
	t.Helper()
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// shipped returns everything the catch-up buffer would send a follower at
// LSN 0.
func shipped(t *testing.T, db *DB) []replRecord {
	t.Helper()
	recs, ok := db.entriesSince(0)
	if !ok {
		t.Fatalf("catch-up buffer does not reach back to 0 (lsn %d)", db.LSN())
	}
	return recs
}

// record encodes one statement as a follower would receive it.
func record(t *testing.T, sql string, args ...any) []byte {
	t.Helper()
	rec, err := encodeWalEntry(sql, args)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(rec, []byte("\n"))
}

// TestCommitFailureRollsBack: whichever entry point drove the write step,
// a failed log append leaves rows, auto-ids, LSN and the catch-up buffer at
// their pre-call values, and disk agrees.
func TestCommitFailureRollsBack(t *testing.T) {
	cases := []struct {
		name  string
		write func(db *DB) error
	}{
		{"Exec", func(db *DB) error {
			_, err := db.Exec("INSERT INTO p (v) VALUES ('lost')")
			return err
		}},
		{"Batch", func(db *DB) error {
			return db.Batch(func(exec ExecFunc) error {
				for _, sql := range []string{
					"INSERT INTO p (v) VALUES ('lost'), ('lost too')",
					"UPDATE p SET v = 'changed' WHERE id = 1",
					"CREATE TABLE q (id INTEGER PRIMARY KEY)",
				} {
					if _, err := exec(sql); err != nil {
						t.Errorf("%s: %v (the batch should fail at the append, not before)", sql, err)
					}
				}
				return nil
			})
		}},
		{"ApplyRecord", func(db *DB) error {
			return db.ApplyRecords([]ReplEvent{{LSN: db.LSN() + 1, Entry: record(t, "INSERT INTO p (v) VALUES (?)", "lost")}})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "k.db")
			db := openFile(t, path)
			mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, v TEXT)")
			mustExec(t, db, "INSERT INTO p (v) VALUES ('keep')")
			state, lsn, buf := snapshotBytes(t, db), db.LSN(), shipped(t, db)

			db.wal.f.Close() // sabotage the log so the append fails
			err := c.write(db)
			if err == nil || !strings.Contains(err.Error(), "write log") {
				t.Fatalf("write with a broken log: err = %v", err)
			}
			if got := snapshotBytes(t, db); !bytes.Equal(got, state) {
				t.Errorf("memory diverged from disk:\n got %s\nwant %s", got, state)
			}
			if db.LSN() != lsn || !reflect.DeepEqual(shipped(t, db), buf) {
				t.Errorf("LSN %d (want %d) or catch-up buffer moved", db.LSN(), lsn)
			}
			if got := snapshotBytes(t, openFile(t, path)); !bytes.Equal(got, state) {
				t.Errorf("disk state:\n got %s\nwant %s", got, state)
			}
		})
	}
}

// TestCommitPathsAgree drives one generated history through each entry
// point of the write step — N× Exec, one Batch, ApplyRecord of the first
// database's shipped records, "batch" requests over the wire with ids sent
// as references, ApplyRecords of the shipped records in groups — and demands
// the same bytes everywhere: log file, snapshot, LSN, catch-up buffer. A
// statement failing in the middle leaves Exec and ApplyRecord at the same
// prefix and Batch, the wire batch and ApplyRecords at nothing.
func TestCommitPathsAgree(t *testing.T) {
	type node struct {
		db   *DB
		path string
	}
	open := func(t *testing.T, name string) node {
		path := filepath.Join(t.TempDir(), name)
		return node{openFile(t, path), path}
	}
	same := func(t *testing.T, what string, got, want node) {
		t.Helper()
		g, err := os.ReadFile(got.path)
		if err != nil {
			t.Fatal(err)
		}
		w, err := os.ReadFile(want.path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s: log files differ (%d vs %d bytes)", what, len(g), len(w))
		}
		if !bytes.Equal(snapshotBytes(t, got.db), snapshotBytes(t, want.db)) {
			t.Errorf("%s: snapshots differ", what)
		}
		if got.db.LSN() != want.db.LSN() {
			t.Errorf("%s: LSN %d, want %d", what, got.db.LSN(), want.db.LSN())
		}
		if !reflect.DeepEqual(shipped(t, got.db), shipped(t, want.db)) {
			t.Errorf("%s: catch-up buffers differ", what)
		}
	}
	asRef := 0
	for seed := int64(1); seed <= 4; seed++ {
		execd := open(t, "exec.kdb")
		var ops []randomOp // the statements that committed
		var results []Result
		for _, op := range randomOps(rand.New(rand.NewSource(seed)), 150) {
			if res, err := execd.db.Exec(op.sql, op.args...); err == nil {
				ops, results = append(ops, op), append(results, res)
			}
		}

		batched := open(t, "batch.kdb")
		var batchResults []Result
		err := batched.db.Batch(func(exec ExecFunc) error {
			for _, op := range ops {
				res, err := exec(op.sql, op.args...)
				if err != nil {
					return err
				}
				batchResults = append(batchResults, res)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("seed %d: batch: %v", seed, err)
		}
		if !reflect.DeepEqual(batchResults, results) {
			t.Errorf("seed %d: Batch results differ from Exec's", seed)
		}
		same(t, "Batch", batched, execd)

		applied := open(t, "apply.kdb")
		recs := shipped(t, execd.db)
		for _, r := range recs {
			if err := applied.db.ApplyRecords([]ReplEvent{{LSN: r.lsn, Entry: r.raw}}); err != nil {
				t.Fatalf("seed %d: apply %d: %v", seed, r.lsn, err)
			}
		}
		same(t, "ApplyRecord", applied, execd)

		wired := open(t, "wire.kdb")
		remote := dialServed(t, &Server{DB: wired.db})
		ids := make([]int64, len(results))
		for i, res := range results {
			ids[i] = res.LastInsertID
		}
		refs, n := wireBatches(t, remote, ops, ids, 7+int(seed)*9)
		asRef += n
		for i, ref := range refs {
			if ref.ID() != ids[i] {
				t.Fatalf("seed %d: wire batch statement %d answered id %d, Exec %d", seed, i, ref.ID(), ids[i])
			}
		}
		if remote.LSN() != execd.db.LSN() {
			t.Errorf("seed %d: wire client saw LSN %d, want %d", seed, remote.LSN(), execd.db.LSN())
		}
		same(t, "wire batches", wired, execd)

		grouped := open(t, "group.kdb")
		for at, size := 0, 1; at < len(recs); at, size = at+size, size%5+int(seed) {
			var evs []ReplEvent
			for _, r := range recs[at:min(at+size, len(recs))] {
				evs = append(evs, ReplEvent{LSN: r.lsn, Entry: r.raw})
			}
			if err := grouped.db.ApplyRecords(evs); err != nil {
				t.Fatalf("seed %d: apply group at %d: %v", seed, at, err)
			}
		}
		same(t, "ApplyRecords", grouped, execd)

		// The same history with a failing statement in the middle.
		k := len(ops) / 2
		const bad = "INSERT INTO missing (n) VALUES (1)"
		execd = open(t, "exec2.kdb")
		for _, op := range ops[:k] {
			mustExec(t, execd.db, op.sql, op.args...)
		}
		if _, err := execd.db.Exec(bad); err == nil {
			t.Fatal("bad statement committed")
		}
		applied = open(t, "apply2.kdb")
		for _, r := range recs[:k] {
			if err := applied.db.ApplyRecords([]ReplEvent{{LSN: r.lsn, Entry: r.raw}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := applied.db.ApplyRecords([]ReplEvent{{LSN: int64(k + 1), Entry: record(t, bad)}}); err == nil {
			t.Fatal("bad record applied")
		}
		same(t, "ApplyRecord prefix", applied, execd)
		if execd.db.LSN() != int64(k) {
			t.Errorf("seed %d: prefix LSN = %d, want %d", seed, execd.db.LSN(), k)
		}
		batched = open(t, "batch2.kdb")
		err = batched.db.Batch(func(exec ExecFunc) error {
			for _, op := range append(append(ops[:k:k], randomOp{sql: bad}), ops[k:]...) {
				if _, err := exec(op.sql, op.args...); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			t.Fatal("batch with a bad statement committed")
		}
		same(t, "failed Batch", batched, open(t, "empty.kdb"))

		broken := append(append(ops[:k:k], randomOp{sql: bad}), ops[k:]...)
		wired = open(t, "wire2.kdb")
		err = Batch(dialServed(t, &Server{DB: wired.db}), func(exec ExecFunc) error {
			for _, op := range broken {
				if _, err := exec(op.sql, op.args...); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			t.Fatal("wire batch with a bad statement committed")
		}
		same(t, "failed wire batch", wired, open(t, "empty2.kdb"))
		grouped = open(t, "group2.kdb")
		var evs []ReplEvent
		for i, op := range broken {
			evs = append(evs, ReplEvent{LSN: int64(i + 1), Entry: record(t, op.sql, op.args...)})
		}
		if err := grouped.db.ApplyRecords(evs); err == nil {
			t.Fatal("group with a bad record applied")
		}
		same(t, "failed ApplyRecords", grouped, open(t, "empty3.kdb"))
		if err := grouped.db.ApplyRecords(evs[k+1:]); !errors.Is(err, ErrLSNGap) {
			t.Errorf("seed %d: a group that does not follow the local sequence: err = %v", seed, err)
		}
	}
	if asRef < 20 {
		t.Errorf("only %d arguments travelled as references; the wire path was not exercised with them", asRef)
	}
}

// TestUnloggableArgumentReportedFirst pins the order of the write step's
// checks: the record is encoded before the statement is parsed, so a call
// with both an unloggable argument and bad SQL reports the argument, through
// Exec as through Batch.
func TestUnloggableArgumentReportedFirst(t *testing.T) {
	db := memDB(t)
	defer db.Close()
	_, execErr := db.Exec("NOT SQL", struct{}{})
	batchErr := db.Batch(func(exec ExecFunc) error {
		_, err := exec("NOT SQL", struct{}{})
		return err
	})
	for _, err := range []error{execErr, batchErr} {
		if err == nil || !strings.Contains(err.Error(), "unsupported argument type") {
			t.Errorf("err = %v, want the unsupported argument", err)
		}
	}
}

// TestCompactReopenKeepsLSN reproduces the compact-restart defect: a
// snapshot holds one INSERT per row, so after a multi-row insert it has more
// records than the history had commits. Reopening it must come back at the
// snapshot's base LSN, and must never offer snapshot rows to a follower as
// the records behind an LSN.
func TestCompactReopenKeepsLSN(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k.db")
	db := openFile(t, path)
	mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, v TEXT)")
	mustExec(t, db, "INSERT INTO p (v) VALUES ('a'), ('b'), ('c'), ('d'), ('e')")
	const lsn = 2
	var history [lsn + 1][]replRecord
	for after := range history {
		history[after], _ = db.entriesSince(int64(after))
	}
	check := func(when string, db *DB) {
		t.Helper()
		if db.LSN() != lsn {
			t.Errorf("%s: LSN = %d, want %d", when, db.LSN(), lsn)
		}
		for after, want := range history {
			recs, ok := db.entriesSince(int64(after))
			if !ok && after < lsn {
				continue // a snapshot is demanded: always safe
			}
			if !ok || !reflect.DeepEqual(recs, want) {
				t.Errorf("%s: entriesSince(%d) = %d records, ok=%v; want the %d the history holds",
					when, after, len(recs), ok, len(want))
			}
		}
	}
	check("before Compact", db)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	check("after Compact", db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = openFile(t, path)
	check("after reopen", db)

	// RestoreSnapshot of the same bytes agrees with Open.
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	restored := memDB(t)
	defer restored.Close()
	if err := restored.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	check("after RestoreSnapshot", restored)

	if res := mustExec(t, db, "INSERT INTO p (v) VALUES ('f')"); res.LSN != lsn+1 || res.LastInsertID != 6 {
		t.Errorf("next commit = %+v, want LSN %d and id 6", res, lsn+1)
	}
}

// TestReplayTicksNoStatementMetrics: opening a log replays records nobody
// executed, so the statement histograms must not move until a real Exec.
func TestReplayTicksNoStatementMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k.db")
	db := openFile(t, path)
	mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, v INTEGER)")
	for i := 0; i < 999; i++ {
		mustExec(t, db, "INSERT INTO p (v) VALUES (?)", i)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	execs, waits := metExecSeconds.Count(), metLockWaitSeconds.Count()
	db = openFile(t, path)
	if db.LSN() != 1000 {
		t.Fatalf("replayed LSN = %d, want 1000", db.LSN())
	}
	if e, w := metExecSeconds.Count()-execs, metLockWaitSeconds.Count()-waits; e != 0 || w != 0 {
		t.Errorf("replay observed %d statements and %d lock waits, want none", e, w)
	}
	mustExec(t, db, "INSERT INTO p (v) VALUES (0)")
	if e, w := metExecSeconds.Count()-execs, metLockWaitSeconds.Count()-waits; e != 1 || w != 1 {
		t.Errorf("one Exec observed %d statements and %d lock waits, want 1 and 1", e, w)
	}
}
