package kdb_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/kdb"
	"repro/internal/kdb/kdbtest"
)

// TestFailedAppendKeepsLaterCommits: a log append that writes only part of
// its step, or nothing, fails that commit alone. The file is cut back to the
// end of the last whole step, the next commit succeeds at the next LSN, and
// a reopen holds exactly the acknowledged rows.
func TestFailedAppendKeepsLaterCommits(t *testing.T) {
	acked := kdbtest.MemDB(t, kdb.DBOptions{})
	mustExec(t, acked, "CREATE TABLE p (id INTEGER PRIMARY KEY, v TEXT)")
	mustExec(t, acked, "INSERT INTO p (v) VALUES (?)", "first")
	mustExec(t, acked, "INSERT INTO p (v) VALUES (?)", "after")
	want := dumpOf(t, acked)
	for _, mode := range []kdbtest.FaultMode{kdbtest.ShortWrite, kdbtest.Fail} {
		path := filepath.Join(t.TempDir(), "f.kdb")
		ff := &kdbtest.FaultFile{Mode: mode, At: math.MaxInt64}
		kdb.InterposeLogFiles(t, func(f *os.File) kdb.WALFile { ff.File = f; return ff })
		db, err := kdb.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, v TEXT)")
		mustExec(t, db, "INSERT INTO p (v) VALUES (?)", "first")
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Nothing was written at Open, so the file's length is what the
		// FaultFile has seen: the next record breaks 10 bytes in.
		ff.At = int64(len(before)) + 10
		lsn := db.LSN()
		if _, err := db.Exec("INSERT INTO p (v) VALUES (?)", "lost"); err == nil {
			t.Fatalf("mode %d: the faulted append reported success", mode)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, before) {
			t.Fatalf("mode %d: the failed append left %d bytes, want the %d before it (%v)", mode, len(got), len(before), err)
		}
		res, err := db.Exec("INSERT INTO p (v) VALUES (?)", "after")
		if err != nil {
			t.Fatalf("mode %d: the commit after a failed append: %v", mode, err)
		}
		if res.LSN != lsn+1 {
			t.Errorf("mode %d: the next commit took LSN %d, want %d", mode, res.LSN, lsn+1)
		}
		db.Close()
		kdb.InterposeLogFiles(t, func(f *os.File) kdb.WALFile { return f })
		db, err = kdb.Open(path)
		if err != nil {
			t.Fatalf("mode %d: reopen: %v", mode, err)
		}
		if got := dumpOf(t, db); !bytes.Equal(got, want) {
			t.Errorf("mode %d: reopened to\n%s\nwant the acknowledged rows\n%s", mode, got, want)
		}
		if db.LSN() != lsn+1 {
			t.Errorf("mode %d: reopened at LSN %d, want %d", mode, db.LSN(), lsn+1)
		}
		db.Close()
	}
}
