package kdb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// viewStream rebuilds the snapshot stream from a View: every table's
// records, cut into pieces of at most piece records, then the meta record.
func viewStream(t *testing.T, db *DB, piece int) []byte {
	t.Helper()
	var out bytes.Buffer
	err := db.View(func(v *View) error {
		autoIDs := map[string]int64{}
		for _, tv := range v.Tables() {
			for from := 0; from < tv.Records(); from += piece {
				to := from + piece
				if to > tv.Records() {
					to = tv.Records()
				}
				if err := tv.EncodeRecords(&out, from, to); err != nil {
					return err
				}
			}
			if id := tv.AutoID(); id > 0 {
				autoIDs[tv.Name()] = id
			}
		}
		meta, err := json.Marshal(walEntry{AutoIDs: autoIDs, BaseLSN: v.LSN(), Meta: true})
		if err != nil {
			return err
		}
		out.Write(append(meta, '\n'))
		return nil
	})
	if err != nil {
		t.Fatalf("view: %v", err)
	}
	return out.Bytes()
}

// stamps reads one table's (version, rewritten) pair.
func stamps(t *testing.T, db *DB, table string) (version, rewritten int64) {
	t.Helper()
	err := db.View(func(v *View) error {
		tv, ok := v.Table(table)
		if !ok {
			return fmt.Errorf("no table %q", table)
		}
		version, rewritten = tv.Version(), tv.Rewritten()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return version, rewritten
}

var errBoom = errors.New("boom")

// TestViewEncoderEqualsSnapshot: after random mutation sequences —
// appends, UPDATE, DELETE, rolled-back batches, index DDL, DROP+CREATE,
// RestoreSnapshot — the per-table encoder's concatenation (in pieces of
// any size) is the WriteSnapshot stream, byte for byte.
func TestViewEncoderEqualsSnapshot(t *testing.T) {
	r := rand.New(rand.NewSource(20260930))
	db := memDB(t)
	types := []ColType{TInteger, TReal, TText}
	type tbl struct {
		name    string
		cols    []ColType // after the id column
		indexed bool
	}
	var tables []*tbl
	create := func(name string) *tbl {
		tb := &tbl{name: name}
		defs := []string{"id INTEGER PRIMARY KEY"}
		for ci := 0; ci < 1+r.Intn(3); ci++ {
			typ := types[r.Intn(3)]
			defs = append(defs, fmt.Sprintf("c%d %s", ci, typ))
			tb.cols = append(tb.cols, typ)
		}
		mustExec(t, db, fmt.Sprintf("CREATE TABLE %s (%s)", name, joinComma(defs)))
		return tb
	}
	insert := func(exec ExecFunc, tb *tbl) error {
		ph := make([]string, len(tb.cols))
		args := make([]any, len(tb.cols))
		for i, typ := range tb.cols {
			ph[i], args[i] = "?", randCell(r, typ)
		}
		_, err := exec(fmt.Sprintf("INSERT INTO %s VALUES (NULL, %s)", tb.name, joinComma(ph)), args...)
		return err
	}
	for i, name := range []string{"Alpha", "beta", "GAMMA"} { // snapshot order is by lowercased name
		tables = append(tables, create(name))
		for n := 0; n < 5*i; n++ {
			if err := insert(db.Exec, tables[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for step := 0; step < 300; step++ {
		tb := tables[r.Intn(len(tables))]
		switch op := r.Intn(10); op {
		case 0, 1, 2, 3:
			for n := 0; n < 1+r.Intn(30); n++ {
				if err := insert(db.Exec, tb); err != nil {
					t.Fatal(err)
				}
			}
		case 4:
			mustExec(t, db, fmt.Sprintf("UPDATE %s SET c0 = NULL WHERE id = ?", tb.name), r.Intn(40))
		case 5:
			mustExec(t, db, fmt.Sprintf("DELETE FROM %s WHERE id = ?", tb.name), r.Intn(40))
		case 6:
			err := db.Batch(func(exec ExecFunc) error {
				for n := 0; n < 1+r.Intn(5); n++ {
					if err := insert(exec, tb); err != nil {
						return err
					}
				}
				return errBoom
			})
			if !errors.Is(err, errBoom) {
				t.Fatalf("step %d: failed batch: %v", step, err)
			}
		case 7:
			if tb.indexed {
				mustExec(t, db, "DROP INDEX ix_"+tb.name)
			} else {
				mustExec(t, db, fmt.Sprintf("CREATE INDEX ix_%s ON %s (c0)", tb.name, tb.name))
			}
			tb.indexed = !tb.indexed
		case 8:
			mustExec(t, db, "DROP TABLE "+tb.name)
			*tb = *create(tb.name)
		case 9:
			if err := db.RestoreSnapshot(snapshotBytes(t, db)); err != nil {
				t.Fatalf("step %d: restore: %v", step, err)
			}
		}
		want := snapshotBytes(t, db)
		for _, piece := range []int{1 << 30, 1 + r.Intn(7), DefaultChunkLines} {
			if got := viewStream(t, db, piece); !bytes.Equal(got, want) {
				t.Fatalf("step %d: view stream in pieces of %d differs from WriteSnapshot:\n got %q\nwant %q", step, piece, got, want)
			}
		}
	}
}

// TestRewrittenStamp pins which mutations count as appends (version moves,
// the rewrite stamp does not) and which as rewrites (both move, to the
// same value), including the cases a version-keyed consumer would
// otherwise misread as "appended to since version X".
func TestRewrittenStamp(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE s (id INTEGER PRIMARY KEY, v TEXT)")
	v0, w0 := stamps(t, db, "s")
	if v0 == 0 || w0 != v0 {
		t.Fatalf("a new table must read as rewritten at its first version: version %d rewritten %d", v0, w0)
	}
	last := v0
	step := func(name string, rewrite bool, fn func()) {
		t.Helper()
		fn()
		v, w := stamps(t, db, "s")
		if v <= last {
			t.Fatalf("%s: version did not move (%d -> %d)", name, last, v)
		}
		if rewrite && w != v {
			t.Fatalf("%s: must count as a rewrite: version %d rewritten %d", name, v, w)
		}
		if !rewrite && w > last {
			t.Fatalf("%s: an append moved the rewrite stamp to %d (version before %d)", name, w, last)
		}
		last = v
	}
	step("insert", false, func() { mustExec(t, db, "INSERT INTO s (v) VALUES ('a')") })
	step("batched inserts", false, func() {
		err := db.Batch(func(exec ExecFunc) error {
			for i := 0; i < 3; i++ {
				if _, err := exec("INSERT INTO s (v) VALUES ('b')"); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	step("update", true, func() { mustExec(t, db, "UPDATE s SET v = 'c' WHERE id = 1") })
	step("delete", true, func() { mustExec(t, db, "DELETE FROM s WHERE id = 2") })
	step("rolled-back insert", true, func() {
		err := db.Batch(func(exec ExecFunc) error {
			if _, err := exec("INSERT INTO s (v) VALUES ('gone')"); err != nil {
				return err
			}
			return errBoom
		})
		if !errors.Is(err, errBoom) {
			t.Fatal(err)
		}
	})
	step("create index", true, func() { mustExec(t, db, "CREATE INDEX ix_s ON s (v)") })
	step("drop index", true, func() { mustExec(t, db, "DROP INDEX ix_s") })
	step("rolled-back create index", true, func() {
		err := db.Batch(func(exec ExecFunc) error {
			if _, err := exec("CREATE INDEX ix_s ON s (v)"); err != nil {
				return err
			}
			return errBoom
		})
		if !errors.Is(err, errBoom) {
			t.Fatal(err)
		}
	})
	step("drop and recreate", true, func() {
		mustExec(t, db, "DROP TABLE s")
		mustExec(t, db, "CREATE TABLE s (id INTEGER PRIMARY KEY, v TEXT)")
	})
	mustExec(t, db, "INSERT INTO s (v) VALUES ('x')")
	mustExec(t, db, "INSERT INTO s (v) VALUES ('y')")
	_, last = stamps(t, db, "s")
	step("restore snapshot", true, func() {
		if err := db.RestoreSnapshot(snapshotBytes(t, db)); err != nil {
			t.Fatal(err)
		}
	})

	// A statement that touches no row is no mutation at all.
	mustExec(t, db, "UPDATE s SET v = 'z' WHERE id = 999")
	if v, _ := stamps(t, db, "s"); v != last {
		t.Fatalf("an UPDATE of zero rows moved the version %d -> %d", last, v)
	}
	if v, ok := db.TableVersion("S"); !ok || v != last {
		t.Fatalf("TableVersion(S) = %d, %v; want %d, true", v, ok, last)
	}
	if _, ok := db.TableVersion("nosuch"); ok {
		t.Fatal("TableVersion reports a table that does not exist")
	}
}
