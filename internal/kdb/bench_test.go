package kdb

import (
	"context"
	"path/filepath"
	"testing"
	"time"
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

// benchServed serves a fresh in-memory database on loopback and dials it.
func benchServed(b *testing.B) (*DB, *Remote) {
	b.Helper()
	db, err := Open("")
	if err != nil {
		b.Fatal(err)
	}
	srv := &Server{DB: db}
	l, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	r, err := Dial(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		r.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		db.Close()
	})
	return db, r
}

const wireInsert = "INSERT INTO w (a, b, c, d, e, f, g, h, i) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)"

// wireInsertArgs is the 9-argument row of a schema save: ids, reals, text
// and a NULL.
func wireInsertArgs(i int) []any {
	return []any{int64(i), int64(3), 1234.5, 0.25, "write", "POSIX", "/scratch/fuchs/zhuz/test80", nil, "ior -a posix -b 4m -t 2m"}
}

func benchWireTable(tb testing.TB, c Conn) {
	tb.Helper()
	if _, err := c.Exec("CREATE TABLE w (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, c REAL, d REAL, e TEXT, f TEXT, g TEXT, h TEXT, i TEXT)"); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkWireExec is one 9-argument insert over a loopback kdb://
// exchange: request encode, server decode, commit, response, client decode.
func BenchmarkWireExec(b *testing.B) {
	_, r := benchServed(b)
	benchWireTable(b, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Exec(wireInsert, wireInsertArgs(i)...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireBatch is one 16-object save — 240 nine-argument inserts, the
// children naming their parents' ids by reference — as one "batch" exchange:
// the served-ingest unit of work. Divide by 240 to compare a statement with
// BenchmarkWireExec's.
func BenchmarkWireBatch(b *testing.B) {
	_, r := benchServed(b)
	benchWireTable(b, r)
	save := saveShaped(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Batch(r, save); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireQuery is one 20-row, 10-column select over the same exchange.
func BenchmarkWireQuery(b *testing.B) {
	_, r := benchServed(b)
	benchWireTable(b, r)
	for i := 0; i < 20; i++ {
		if _, err := r.Exec(wireInsert, wireInsertArgs(i)...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := r.Query("SELECT * FROM w WHERE b = ?", int64(3))
		if err != nil {
			b.Fatal(err)
		}
		if rows.Len() != 20 {
			b.Fatalf("rows = %d, want 20", rows.Len())
		}
	}
}

// BenchmarkApplyRecord is a follower applying one shipped record to its
// file-backed log.
func BenchmarkApplyRecord(b *testing.B) {
	db, err := Open(filepath.Join(b.TempDir(), "follower.kdb"))
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	benchWireTable(b, db)
	rec, err := encodeWalEntry(wireInsert, wireInsertArgs(1))
	if err != nil {
		b.Fatal(err)
	}
	rec = rec[:len(rec)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.ApplyRecord(db.lsn+1, rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyRecords is a follower applying a shipped group of 240
// records to its file-backed log as one write step.
func BenchmarkApplyRecords(b *testing.B) {
	db, err := Open(filepath.Join(b.TempDir(), "follower.kdb"))
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	benchWireTable(b, db)
	rec, err := encodeWalEntry(wireInsert, wireInsertArgs(1))
	if err != nil {
		b.Fatal(err)
	}
	group := make([]ReplEvent, 240)
	for i := range group {
		group[i].Entry = rec[:len(rec)-1]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range group {
			group[j].LSN = db.lsn + 1 + int64(j)
		}
		if err := db.ApplyRecords(group); err != nil {
			b.Fatal(err)
		}
	}
}
