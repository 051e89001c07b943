package kdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

// randomOp is one generated mutation statement.
type randomOp struct {
	sql  string
	args []any
}

// randomOps generates a pseudo-random mutation history: table creation,
// typed inserts (including NULLs), updates, deletes, and secondary indexes.
// Some statements fail when run (a duplicate index, say), which is fine —
// only committed mutations reach the log.
func randomOps(rng *rand.Rand, n int) []randomOp {
	ops := make([]randomOp, 0, n)
	add := func(sql string, args ...any) { ops = append(ops, randomOp{sql, args}) }
	tables := 0
	for i := 0; i < n; i++ {
		switch op := rng.Intn(10); {
		case op == 0 || tables == 0:
			add(fmt.Sprintf(
				"CREATE TABLE t%d (id INTEGER PRIMARY KEY, n INTEGER, r REAL, s TEXT)", tables))
			tables++
		case op == 1 && tables > 0:
			add(fmt.Sprintf("CREATE INDEX ix%d_n ON t%d (n)", rng.Intn(tables), rng.Intn(tables)))
		case op <= 6:
			var sv any = fmt.Sprintf("s-%d", rng.Intn(1000))
			if rng.Intn(5) == 0 {
				sv = nil
			}
			add(fmt.Sprintf("INSERT INTO t%d (n, r, s) VALUES (?, ?, ?)", rng.Intn(tables)),
				int64(rng.Intn(100)), rng.Float64()*1e3, sv)
		case op == 7:
			add(fmt.Sprintf("UPDATE t%d SET n = ? WHERE n = ?", rng.Intn(tables)),
				int64(rng.Intn(100)), int64(rng.Intn(100)))
		default:
			add(fmt.Sprintf("DELETE FROM t%d WHERE n = ?", rng.Intn(tables)),
				int64(rng.Intn(100)))
		}
	}
	return ops
}

// applyRandomOps drives db through randomOps statement by statement,
// ignoring the failures.
func applyRandomOps(db *DB, rng *rand.Rand, n int) {
	for _, op := range randomOps(rng, n) {
		db.Exec(op.sql, op.args...)
	}
}

func snapshotBytes(t testing.TB, db *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWALRoundTripProperty checks the property the replication design
// rests on: for arbitrary mutation histories, replaying the on-disk log
// reproduces the exact state (byte-identical snapshot, same LSN), and
// restoring a snapshot reproduces it again.
func TestWALRoundTripProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		path := filepath.Join(t.TempDir(), "p.kdb")
		db, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		applyRandomOps(db, rand.New(rand.NewSource(seed)), 200)
		want := snapshotBytes(t, db)
		lsn := db.LSN()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		reopened, err := Open(path)
		if err != nil {
			t.Fatalf("seed %d: reopen: %v", seed, err)
		}
		if got := snapshotBytes(t, reopened); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: replayed state differs from original", seed)
		}
		if reopened.LSN() != lsn {
			t.Fatalf("seed %d: replayed LSN = %d, want %d", seed, reopened.LSN(), lsn)
		}
		reopened.Close()

		restored, err := Open("")
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.RestoreSnapshot(want); err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		if got := snapshotBytes(t, restored); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: restored state differs from original", seed)
		}
		if restored.LSN() != lsn {
			t.Fatalf("seed %d: restored LSN = %d, want %d", seed, restored.LSN(), lsn)
		}
		restored.Close()
	}
}

// FuzzWALRoundTrip feeds arbitrary seeds and history lengths through the
// same round-trip property.
func FuzzWALRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(50))
	f.Add(int64(42), uint8(200))
	f.Add(int64(-7), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		path := filepath.Join(t.TempDir(), "f.kdb")
		db, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		applyRandomOps(db, rand.New(rand.NewSource(seed)), int(n))
		want := snapshotBytes(t, db)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := Open(path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer reopened.Close()
		if got := snapshotBytes(t, reopened); !bytes.Equal(got, want) {
			t.Fatal("replayed state differs from original")
		}
	})
}

// TestSnapshotZeroLSNMetaRecord pins down the meta-record edge case: a
// snapshot representing LSN 0 with no auto-increment high-water marks has a
// meta record with no distinguishing fields, which the legacy
// infer-from-fields classification mistook for a replayable mutation. The
// explicit tag must round-trip it as "no history".
func TestSnapshotZeroLSNMetaRecord(t *testing.T) {
	// The exact shape the engine serializes for a schema-only, zero-history
	// database — e.g. a replica snapshotted before its first commit.
	snap := []byte(`{"sql":"CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)"}` + "\n" +
		`{"meta":true}` + "\n")

	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Seed unrelated history so the restore provably resets both state and
	// LSN rather than leaving them untouched.
	if _, err := db.Exec("CREATE TABLE old (id INTEGER PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if err := db.RestoreSnapshot(snap); err != nil {
		t.Fatalf("zero-LSN meta record rejected: %v", err)
	}
	if got := db.LSN(); got != 0 {
		t.Errorf("restored LSN = %d, want 0", got)
	}
	if tabs := db.Tables(); len(tabs) != 1 || tabs[0] != "kv" {
		t.Errorf("restored tables = %v, want [kv]", tabs)
	}
	if got := snapshotBytes(t, db); !bytes.Equal(got, snap) {
		t.Errorf("zero-LSN snapshot did not round-trip byte-identically:\ngot  %q\nwant %q", got, snap)
	}
}

// TestSnapshotLegacyMetaRecord keeps untagged meta records from
// pre-explicit-tag snapshots restoring correctly.
func TestSnapshotLegacyMetaRecord(t *testing.T) {
	legacy := []byte(`{"sql":"CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)"}` + "\n" +
		`{"auto_ids":{"kv":5},"base_lsn":7}` + "\n")
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.RestoreSnapshot(legacy); err != nil {
		t.Fatalf("legacy meta record rejected: %v", err)
	}
	if got := db.LSN(); got != 7 {
		t.Errorf("restored LSN = %d, want 7", got)
	}
	res, err := db.Exec("INSERT INTO kv (v) VALUES (?)", "x")
	if err != nil {
		t.Fatal(err)
	}
	if res.LastInsertID != 6 {
		t.Errorf("auto id after restore = %d, want 6 (high-water mark 5 honored)", res.LastInsertID)
	}
}
