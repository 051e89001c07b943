package kdb

import (
	"path/filepath"
	"testing"
)

// benchFill commits n single-row inserts into a fresh table.
func benchFill(b *testing.B, db *DB, n int) {
	b.Helper()
	if _, err := db.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER, s TEXT)"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := db.Exec("INSERT INTO t (n, s) VALUES (?, ?)", int64(i), "payload"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenReplay reopens a 10k-record file log: the cost of replay,
// which a restarted node pays before it serves anything.
func BenchmarkOpenReplay(b *testing.B) {
	path := filepath.Join(b.TempDir(), "replay.kdb")
	db, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	benchFill(b, db, 9999)
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		if db.LSN() != 10000 {
			b.Fatalf("replayed LSN = %d, want 10000", db.LSN())
		}
		db.Close()
	}
}

// BenchmarkExecCommit is one file-backed single-statement Exec: encode,
// apply, append and flush, commit bookkeeping.
func BenchmarkExecCommit(b *testing.B) {
	db, err := Open(filepath.Join(b.TempDir(), "commit.kdb"))
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	benchFill(b, db, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("INSERT INTO t (n, s) VALUES (?, ?)", int64(i), "payload"); err != nil {
			b.Fatal(err)
		}
	}
}
