package kdb

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randCell draws one value of a column's type, covering the corners the
// snapshot encoding must preserve: NULLs, negative and extreme integers,
// tiny/huge floats, and text with unicode, quotes, and newlines. NaN and
// ±Inf are excluded — the JSON-lines log cannot encode them, a
// store-level invariant that predates snapshots.
func randCell(r *rand.Rand, typ ColType) any {
	if r.Intn(6) == 0 {
		return nil
	}
	switch typ {
	case TInteger:
		switch r.Intn(4) {
		case 0:
			return int64(math.MinInt64)
		case 1:
			return int64(math.MaxInt64)
		case 2:
			return -int64(r.Intn(1000))
		default:
			return int64(r.Intn(100000))
		}
	case TReal:
		switch r.Intn(4) {
		case 0:
			return 1e-300
		case 1:
			return -1.7976931348623157e308
		case 2:
			return r.Float64() * 1e6
		default:
			return -r.Float64()
		}
	default:
		switch r.Intn(4) {
		case 0:
			return "héllo wörld — ünïcode ✓ 漢字"
		case 1:
			return "line1\nline2\t\"quoted\" \\backslash"
		case 2:
			return ""
		default:
			return fmt.Sprintf("s%d", r.Intn(1000))
		}
	}
}

// TestSnapshotRoundTripProperty: for randomized schemas and data, the
// snapshot stream restores into a fresh database that re-serializes
// byte-identically, and ParseSnapshotTables sees exactly the live rows.
func TestSnapshotRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(20260808))
	types := []ColType{TInteger, TReal, TText}
	for trial := 0; trial < 20; trial++ {
		db := memDB(t)
		nTables := 1 + r.Intn(3)
		for ti := 0; ti < nTables; ti++ {
			name := fmt.Sprintf("t%d_%d", trial, ti)
			cols := []string{"id INTEGER PRIMARY KEY"}
			colTypes := []ColType{TInteger}
			for ci := 0; ci < 1+r.Intn(4); ci++ {
				typ := types[r.Intn(3)]
				cols = append(cols, fmt.Sprintf("c%d %s", ci, typ))
				colTypes = append(colTypes, typ)
			}
			ddl := fmt.Sprintf("CREATE TABLE %s (%s)", name, joinComma(cols))
			mustExec(t, db, ddl)
			nRows := r.Intn(40)
			for ri := 0; ri < nRows; ri++ {
				ph := make([]string, len(colTypes)-1)
				args := make([]any, len(colTypes)-1)
				for i := 1; i < len(colTypes); i++ {
					ph[i-1] = "?"
					args[i-1] = randCell(r, colTypes[i])
				}
				ins := fmt.Sprintf("INSERT INTO %s VALUES (NULL, %s)", name, joinComma(ph))
				mustExec(t, db, ins, args...)
			}
		}

		var snap1 bytes.Buffer
		if _, err := db.WriteSnapshot(&snap1); err != nil {
			t.Fatalf("trial %d: snapshot: %v", trial, err)
		}

		restored := memDB(t)
		if err := restored.RestoreSnapshot(snap1.Bytes()); err != nil {
			t.Fatalf("trial %d: restore: %v", trial, err)
		}
		var snap2 bytes.Buffer
		if _, err := restored.WriteSnapshot(&snap2); err != nil {
			t.Fatalf("trial %d: re-snapshot: %v", trial, err)
		}
		if !bytes.Equal(snap1.Bytes(), snap2.Bytes()) {
			t.Fatalf("trial %d: restore → re-serialize not byte-identical:\n%q\n%q",
				trial, snap1.Bytes(), snap2.Bytes())
		}

		tables, err := ParseSnapshotTables(snap1.Bytes())
		if err != nil {
			t.Fatalf("trial %d: parse: %v", trial, err)
		}
		for name, pt := range tables {
			row, err := db.QueryRow("SELECT COUNT(*) FROM " + name)
			if err != nil {
				t.Fatalf("trial %d: count %s: %v", trial, name, err)
			}
			if int64(len(pt.Rows)) != row[0].(int64) {
				t.Fatalf("trial %d: parsed %s has %d rows, live has %v", trial, name, len(pt.Rows), row[0])
			}
		}
	}
}

func joinComma(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out
}
