package kdb

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// restoreCases are the states a restore must carry through its image: random
// histories, and the values and shapes a typed image could get wrong.
func restoreCases() map[string][]randomOp {
	cases := map[string][]randomOp{
		"empty": nil,
		"NaN, -0, non-UTF-8 text, NULLs": {
			{sql: "CREATE TABLE v (id INTEGER PRIMARY KEY, n INTEGER, r REAL, s TEXT)"},
			{"INSERT INTO v (n, r, s) VALUES (?, ?, ?)", []any{nil, math.NaN(), "bad utf-8 \xff\xfe!"}},
			{"INSERT INTO v (n, r, s) VALUES (?, ?, ?)", []any{int64(-1), math.Copysign(0, -1), nil}},
			{"INSERT INTO v (n, r, s) VALUES (?, ?, ?)", []any{int64(math.MinInt64), math.Inf(-1), "quote \" newline \n  "}},
		},
		"index DDL": {
			{sql: "CREATE TABLE x (id INTEGER PRIMARY KEY, n INTEGER, s TEXT)"},
			{"INSERT INTO x (n, s) VALUES (?, ?)", []any{int64(3), "three"}},
			{sql: "CREATE INDEX x_n ON x (n)"},
			{sql: "CREATE INDEX x_s ON x (s)"},
		},
		"a dropped and re-created table": {
			{sql: "CREATE TABLE d (id INTEGER PRIMARY KEY, s TEXT)"},
			{"INSERT INTO d (s) VALUES (?)", []any{"before the drop"}},
			{sql: "DROP TABLE d"},
			{sql: "CREATE TABLE d (id INTEGER PRIMARY KEY, n INTEGER)"},
			{"INSERT INTO d (n) VALUES (?)", []any{int64(7)}},
		},
		"an auto-id mark above the max row": {
			{sql: "CREATE TABLE a (id INTEGER PRIMARY KEY, s TEXT)"},
			{"INSERT INTO a (s) VALUES (?), (?), (?)", []any{"1", "2", "3"}},
			{"DELETE FROM a WHERE id > ?", []any{int64(1)}},
		},
	}
	for seed := int64(1); seed <= 6; seed++ {
		cases[fmt.Sprintf("seed %d", seed)] = randomOps(rand.New(rand.NewSource(seed)), 200)
	}
	return cases
}

// TestRestoreThenReopenEqualsSnapshot: a file-backed RestoreSnapshot leaves a
// log that starts with a checkpoint image, and the database — restored, and
// reopened from that log — holds exactly the state an in-memory restore of
// the snapshot does, which writes no file: WriteSnapshot's bytes, the LSN,
// and an empty catch-up buffer.
func TestRestoreThenReopenEqualsSnapshot(t *testing.T) {
	for name, ops := range restoreCases() {
		src := memDB(t)
		for _, op := range ops {
			src.Exec(op.sql, op.args...)
		}
		snap, lsn := snapshotBytes(t, src), src.LSN()
		mem := memDB(t)
		if err := mem.RestoreSnapshot(snap); err != nil {
			t.Fatalf("%s: in-memory restore: %v", name, err)
		}
		want := snapshotBytes(t, mem)
		path := filepath.Join(t.TempDir(), "r.kdb")
		db := openFile(t, path)
		mustExec(t, db, "CREATE TABLE old (id INTEGER PRIMARY KEY, s TEXT)")
		mustExec(t, db, "INSERT INTO old (s) VALUES (?)", "replaced by the restore")
		if err := db.RestoreSnapshot(snap); err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		check := func(when string, db *DB) {
			t.Helper()
			if got := snapshotBytes(t, db); !bytes.Equal(got, want) {
				t.Fatalf("%s: %s: dump differs from the in-memory restore's", name, when)
			}
			if db.LSN() != lsn || len(db.replBuf) != 0 {
				t.Fatalf("%s: %s: LSN %d (want %d), %d records in the catch-up buffer", name, when, db.LSN(), lsn, len(db.replBuf))
			}
		}
		check("restored", db)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte(imageMagic)) {
			t.Fatalf("%s: the restored log starts %q, not with an image", name, data[:min(len(data), 40)])
		}
		check("reopened", openFile(t, path))
	}
}

// checkpointsRun counts the online rewrites that have ended, whatever their
// outcome.
func checkpointsRun() int64 {
	var n int64
	for _, c := range metCheckpoints {
		n += c.Value()
	}
	return n
}

// TestFirstCommitAfterRewriteStartsNoCheckpoint: Compact and RestoreSnapshot
// leave an image with nothing after it, so the commit after them, on a log
// well past checkpointFloor, finds no rewrite due; a text log of that length
// would be due at once and rewritten whole.
func TestFirstCommitAfterRewriteStartsNoCheckpoint(t *testing.T) {
	big := strings.Repeat("payload ", 1<<10)
	fill := func(db *DB) {
		t.Helper()
		if err := db.Batch(func(exec ExecFunc) error {
			if _, err := exec("CREATE TABLE big (id INTEGER PRIMARY KEY, s TEXT)"); err != nil {
				return err
			}
			for i := 0; i < checkpointFloor/len(big)+100; i++ {
				if _, err := exec("INSERT INTO big (s) VALUES (?)", big); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	src := memDB(t)
	fill(src)
	snap := snapshotBytes(t, src)
	rewrites := map[string]func(db *DB) error{
		"Compact": func(db *DB) error {
			fill(db)
			db.mu.Lock()
			ck := db.ckpt // the one the fill's commit started
			db.mu.Unlock()
			if ck != nil {
				<-ck.done
			}
			return db.Compact()
		},
		"RestoreSnapshot": func(db *DB) error { return db.RestoreSnapshot(snap) },
	}
	for name, rewrite := range rewrites {
		db := openFile(t, filepath.Join(t.TempDir(), "big.kdb"))
		if err := rewrite(db); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if db.logSize < checkpointFloor {
			t.Fatalf("%s: the log is %d bytes, below the floor", name, db.logSize)
		}
		before := checkpointsRun()
		mustExec(t, db, "INSERT INTO big (s) VALUES (?)", "the first commit after")
		db.mu.Lock()
		started := db.ckpt != nil
		db.mu.Unlock()
		if started || checkpointsRun() != before {
			t.Fatalf("%s: the first commit after it started a checkpoint of a %d-byte log (image %d bytes)", name, db.logSize, db.imageSize)
		}
	}
}

// TestRewritesUnderConcurrentCommits: Compact, RestoreSnapshot and the online
// checkpoint rewrite the log over and over while writers commit. Each
// Compact and restore succeeds, each checkpoint is written or abandoned, and
// the log reopens, with no temp file left, to the live database's dump and
// LSN.
func TestRewritesUnderConcurrentCommits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rw.kdb")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE a (id INTEGER PRIMARY KEY, n INTEGER, s TEXT)")
	mustExec(t, db, "CREATE TABLE b (id INTEGER PRIMARY KEY, n INTEGER, r REAL)")
	mustExec(t, db, "CREATE INDEX b_n ON b (n)")
	for i := 0; i < 300; i++ {
		mustExec(t, db, "INSERT INTO a (n, s) VALUES (?, ?)", int64(i), fmt.Sprintf("row %d", i))
	}
	stop := make(chan struct{})
	var writers, rewriters sync.WaitGroup
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch r := rng.Intn(100); {
				case r < 80:
					db.Exec("INSERT INTO a (n, s) VALUES (?, ?)", int64(i), "appended")
				case r < 90:
					db.Exec("INSERT INTO b (n, r) VALUES (?, ?)", int64(rng.Intn(10)), rng.Float64())
				case r < 95:
					db.Exec("UPDATE b SET r = ? WHERE n = ?", rng.Float64(), int64(rng.Intn(10)))
				default:
					db.Exec("DELETE FROM b WHERE n = ?", int64(rng.Intn(10)))
				}
			}
		}(w)
	}
	const rounds = 8
	errs := make(chan error, 3*rounds)
	rewriters.Add(3)
	go func() {
		defer rewriters.Done()
		for i := 0; i < rounds; i++ {
			if outcome, err := db.CheckpointNow(); err != nil || outcome == ckptFailed {
				errs <- fmt.Errorf("checkpoint %d: %s, %v", i, outcome, err)
			}
		}
	}()
	go func() {
		defer rewriters.Done()
		for i := 0; i < rounds; i++ {
			if err := db.Compact(); err != nil {
				errs <- fmt.Errorf("compact %d: %v", i, err)
			}
		}
	}()
	go func() {
		defer rewriters.Done()
		for i := 0; i < rounds; i++ {
			var snap bytes.Buffer
			if _, err := db.WriteSnapshot(&snap); err != nil {
				errs <- err
			} else if err := db.RestoreSnapshot(snap.Bytes()); err != nil {
				errs <- fmt.Errorf("restore %d: %v", i, err)
			}
		}
	}()
	rewriters.Wait()
	close(stop)
	writers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	want, lsn := snapshotBytes(t, db), db.LSN()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + tempSuffix); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("temp file left behind: %v", err)
	}
	if got := reopenState(t, path); got.snap != string(want) || got.lsn != lsn {
		t.Fatalf("reopened log: LSN %d (want %d), dump equal %v", got.lsn, lsn, got.snap == string(want))
	}
}
