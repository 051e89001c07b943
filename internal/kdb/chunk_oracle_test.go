package kdb_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/kdb"
	"repro/internal/kdb/kdbtest"
)

// The chunks kdb cuts from its live tables, checked against
// kdbtest.ChunkStream, the same rule stated over the snapshot text.

func mustExec(t *testing.T, db *kdb.DB, sql string, args ...any) {
	t.Helper()
	if _, err := db.Exec(sql, args...); err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
}

// streamChunks is what the oracle cuts from db's WriteSnapshot stream.
func streamChunks(t *testing.T, db *kdb.DB) ([]kdb.SnapshotChunk, int64, []byte) {
	t.Helper()
	var buf bytes.Buffer
	lsn, err := db.WriteSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := kdbtest.ChunkStream(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return chunks, lsn, buf.Bytes()
}

// matchStream requires DB.SnapshotChunks to equal the oracle's cut of the
// snapshot stream, chunk for chunk and byte for byte, at the same LSN.
func matchStream(t *testing.T, db *kdb.DB, when string) []byte {
	t.Helper()
	want, wantLSN, data := streamChunks(t, db)
	got, lsn, err := db.SnapshotChunks()
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	if lsn != wantLSN {
		t.Fatalf("%s: SnapshotChunks at LSN %d, WriteSnapshot at %d", when, lsn, wantLSN)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: SnapshotChunks differs from the text cutter: %d chunks vs %d", when, len(got), len(want))
	}
	return data
}

// TestSnapshotChunksMatchStream: over random histories (index DDL, updates,
// deletes, failed statements), a table dropped and created again, empty
// tables, tables that end exactly on and just past a chunk boundary, and a
// restored snapshot, DB.SnapshotChunks is what the text cutter makes of
// WriteSnapshot — the meta chunk and the LSN included.
func TestSnapshotChunksMatchStream(t *testing.T) {
	matchStream(t, kdbtest.MemDB(t, kdb.DBOptions{}), "empty database")
	for seed := int64(1); seed <= 6; seed++ {
		db := kdbtest.MemDB(t, kdb.DBOptions{})
		kdb.ApplyRandomOps(db, rand.New(rand.NewSource(seed)), 300)
		matchStream(t, db, fmt.Sprintf("seed %d: random history", seed))

		mustExec(t, db, "CREATE TABLE empty_t (id INTEGER PRIMARY KEY, v TEXT)")
		mustExec(t, db, "CREATE TABLE wide (id INTEGER PRIMARY KEY, v TEXT)")
		mustExec(t, db, "CREATE INDEX ix_wide_v ON wide (v)")
		// Two header records, then rows: seed 1 ends exactly on a chunk
		// boundary, seed 2 one record past it.
		rows := 2*kdb.DefaultChunkLines - 2 + int(seed-1)
		if err := db.Batch(func(ex kdb.ExecFunc) error {
			for i := 0; i < rows; i++ {
				if _, err := ex("INSERT INTO wide (v) VALUES (?)", fmt.Sprintf("w%d", i)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		matchStream(t, db, fmt.Sprintf("seed %d: multi-chunk table", seed))

		mustExec(t, db, "DROP TABLE t0")
		mustExec(t, db, "CREATE TABLE t0 (id INTEGER PRIMARY KEY, n INTEGER, r REAL, s TEXT)")
		mustExec(t, db, "INSERT INTO t0 (n, r, s) VALUES (?, ?, ?)", int64(1), 0.5, nil)
		data := matchStream(t, db, fmt.Sprintf("seed %d: dropped and re-created", seed))

		restored := kdbtest.MemDB(t, kdb.DBOptions{})
		mustExec(t, restored, "CREATE TABLE stale (id INTEGER PRIMARY KEY)")
		if err := restored.RestoreSnapshot(data); err != nil {
			t.Fatal(err)
		}
		if again := matchStream(t, restored, fmt.Sprintf("seed %d: restored", seed)); !bytes.Equal(again, data) {
			t.Fatalf("seed %d: restored database dumps differently", seed)
		}
	}
}

// TestChunkSnapshotRejectsCorruptStream: the text cutter refuses what it
// cannot cut whole, so an oracle check never passes on a misread stream.
func TestChunkSnapshotRejectsCorruptStream(t *testing.T) {
	db := kdbtest.MemDB(t, kdb.DBOptions{})
	mustExec(t, db, "CREATE TABLE alpha (id INTEGER PRIMARY KEY, v TEXT)")
	mustExec(t, db, "INSERT INTO alpha (v) VALUES (?)", "a")
	_, _, data := streamChunks(t, db)
	if _, err := kdbtest.ChunkStream(data[:len(data)-3]); err == nil {
		t.Error("truncated stream must error")
	}
	bad := append([]byte("{not json\n"), data...)
	if _, err := kdbtest.ChunkStream(bad); err == nil {
		t.Error("corrupt record must error")
	}
}

// FuzzParseSnapshotTables throws arbitrary bytes at the snapshot parser;
// it must reject garbage with an error, never panic.
func FuzzParseSnapshotTables(f *testing.F) {
	db, err := kdb.Open("")
	if err != nil {
		f.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE seed (id INTEGER PRIMARY KEY, v TEXT, x REAL)"); err != nil {
		f.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO seed (v, x) VALUES (?, ?)", "ünïcode\n", 2.5); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := db.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte(""))
	f.Add([]byte("{\"sql\":\"CREATE TABLE x (id INTEGER PRIMARY KEY)\"}\n"))
	f.Add(valid[:len(valid)/2])
	f.Add(bytes.Replace(valid, []byte("CREATE"), []byte("CREATX"), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		tables, err := kdb.ParseSnapshotTables(data)
		if err == nil && len(data) > 0 && data[len(data)-1] == '\n' {
			// A newline-terminated stream that parses must also chunk: real
			// WriteSnapshot output always ends in '\n'. The text cutter is
			// deliberately stricter than the parser about an unterminated
			// final record — chunks must be whole records for the delta
			// path — so the cross-check skips truncated tails.
			if _, cerr := kdbtest.ChunkStream(data); cerr != nil && len(tables) > 0 {
				t.Fatalf("parsed but did not chunk: %v", cerr)
			}
		}
	})
}
