package kdb

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// marksChange draws one committed statement of the kind a feed classifies:
// appends to a that name or omit columns, with NULLs, 1 vs 1.0 and texts
// over 32 bytes that differ only in their last byte; appends to b; rewrites
// of either table; and DROP INDEX, which hits everything.
func marksChange(rng *rand.Rand) Change {
	num := func() any {
		switch rng.Intn(4) {
		case 0:
			return float64(rng.Intn(4))
		case 1:
			return nil
		}
		return int64(rng.Intn(4))
	}
	long := strings.Repeat("t", 40)
	text := func() any {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return long + string(rune('a'+rng.Intn(3)))
		}
		return fmt.Sprintf("s%d", rng.Intn(3))
	}
	var sql string
	var args []any
	switch rng.Intn(12) {
	case 0, 1, 2:
		sql, args = "INSERT INTO a (k, s) VALUES (?, ?)", []any{num(), text()}
	case 3:
		sql, args = "INSERT INTO a (k) VALUES (?), (?)", []any{num(), num()}
	case 4:
		sql, args = "INSERT INTO A (S, id) VALUES (?, ?)", []any{text(), int64(rng.Intn(50))}
	case 5:
		sql, args = "INSERT INTO a (id) VALUES (?)", []any{int64(rng.Intn(50))}
	case 6, 7:
		sql, args = "INSERT INTO b (a_id, v) VALUES (?, ?)", []any{num(), num()}
	case 8:
		sql, args = "UPDATE a SET s = ? WHERE k = ?", []any{text(), num()}
	case 9:
		sql, args = "DELETE FROM b WHERE a_id = ?", []any{num()}
	case 10:
		sql = "INSERT INTO b VALUES (1, 2, 3)"
	default:
		sql = "DROP INDEX ix_a_k"
	}
	rec, err := appendRecord(nil, sql, args)
	if err != nil {
		panic(err)
	}
	ev := ReplEvent{Entry: rec}
	return ev.Change()
}

// marksFootprints are answers' footprints over the same values — Keys,
// Rows, Wholes and Uptos — and the nil (unknown) and empty ones.
func marksFootprints() []Footprint {
	key := func(table, col string, v any) Dep { return Dep{Kind: DepKey, Table: table, Col: col, Val: v} }
	long := strings.Repeat("t", 40)
	fps := []Footprint{nil, {}, {{Kind: DepRow, Table: "a"}}, {{Kind: DepWhole, Table: "b"}},
		{{Kind: DepRow, Table: "b"}, key("a", "s", long+"b")}, {key("a", "s", nil)}, {key("a", "k", nil)}}
	for i := 0; i < 4; i++ {
		fps = append(fps, Footprint{key("a", "k", int64(i))}, Footprint{key("b", "a_id", float64(i)), {Kind: DepRow, Table: "a"}},
			Footprint{key("a", "s", fmt.Sprintf("s%d", i))})
	}
	upto := func(table string) Dep { return Dep{Kind: DepUpto, Table: table, Col: "id"} }
	return append(fps, Footprint{key("a", "s", long+"a"), key("a", "k", 1.0)},
		Footprint{upto("a")}, Footprint{upto("b")}, Footprint{upto("a"), key("b", "a_id", int64(1))})
}

// FuzzMarksEqualScan: after every change of a seeded sequence, for every
// stamp the marks cover, HitSince answers exactly the OR of HitBy over the
// changes after the stamp — across generation rotations, and across a gap
// in the LSNs, after which the marks restart. A stamp before Base counts as
// hit, and Base lies one to two generations back.
func FuzzMarksEqualScan(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 46} {
		f.Add(seed, uint16(300), uint8(7))
	}
	f.Add(int64(5), uint16(40), uint8(64))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, size uint8) {
		rng := rand.New(rand.NewSource(seed))
		m := NewMarks(int64(rng.Intn(100)))
		m.size = 1 + int(size)%64
		fps := marksFootprints()
		// hitBy[j][i]: change j hits fps[i]; lsns[j] its LSN.
		var hitBy [][]bool
		var lsns []int64
		since := 0 // index of the first change after m's restart
		for step := 0; step < int(n)%600; step++ {
			lsn := m.Top() + 1
			if rng.Intn(200) == 0 {
				lsn += int64(1 + rng.Intn(3)) // a gap: nothing known before lsn
				since = len(lsns) + 1
			}
			ch := marksChange(rng)
			m.Apply(lsn, ch)
			row := make([]bool, len(fps))
			for i, fp := range fps {
				row[i] = fp.HitBy(ch)
			}
			hitBy, lsns = append(hitBy, row), append(lsns, lsn)

			if back := int(m.Top() - m.Base()); back > 2*m.size || (len(lsns)-since > m.size && back < m.size) {
				t.Fatalf("step %d: marks cover (%d, %d], %d changes back with generations of %d", step, m.Base(), m.Top(), back, m.size)
			}
			for i, fp := range fps {
				if !fp.HitSince(m, m.Base()-1) {
					t.Fatalf("step %d: a stamp before Base %d is not counted as hit for %v", step, m.Base(), fp)
				}
				scan := false // the OR over the changes after from
				j := len(lsns) - 1
				for from := m.Top(); from >= m.Base(); from-- {
					for ; j >= 0 && lsns[j] > from; j-- {
						scan = scan || hitBy[j][i]
					}
					if got := fp.HitSince(m, from); got != scan {
						t.Fatalf("step %d: footprint %v since %d (marks (%d, %d]): HitSince %v, scan %v", step, fp, from, m.Base(), m.Top(), got, scan)
					}
				}
			}
		}
	})
}

// TestIfNotExistsThatFindsItsObjectIsNotLogged: a CREATE TABLE or CREATE
// INDEX IF NOT EXISTS whose object is there logs no record and takes no
// LSN, alone or inside a batch; a log written before that rule, which holds
// such records, still replays to the same LSN.
func TestIfNotExistsThatFindsItsObjectIsNotLogged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ddl := []string{
		"CREATE TABLE IF NOT EXISTS t (id INTEGER PRIMARY KEY, k INTEGER)",
		"CREATE INDEX IF NOT EXISTS ix_t_k ON t (k)",
	}
	for _, q := range ddl {
		mustExec(t, db, q)
	}
	lsn := db.LSN()
	log, _ := os.ReadFile(path)
	for _, q := range append(ddl, "CREATE INDEX IF NOT EXISTS ix_other ON t (k)") {
		if res := mustExec(t, db, q); res.LSN != 0 {
			t.Errorf("%s: LSN %d, want 0", q, res.LSN)
		}
	}
	var lsns []int64
	err = db.Batch(func(exec ExecFunc) error {
		for _, q := range []string{ddl[0], "INSERT INTO t (k) VALUES (1)", ddl[1]} {
			res, err := exec(q)
			if err != nil {
				return err
			}
			lsns = append(lsns, res.LSN)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.LSN() != lsn+1 || fmt.Sprint(lsns) != fmt.Sprint([]int64{0, lsn + 1, 0}) {
		t.Fatalf("after the batch: LSN %d (was %d), statement LSNs %v", db.LSN(), lsn, lsns)
	}
	if after, _ := os.ReadFile(path); strings.Count(string(after), "\n") != strings.Count(string(log), "\n")+1 {
		t.Fatalf("log grew by %d records, want 1", strings.Count(string(after), "\n")-strings.Count(string(log), "\n"))
	}
	db.Close()

	// An older writer logged the no-ops: replay keeps their LSNs.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range ddl {
		rec, err := appendRecord(nil, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(append(rec, '\n'))
	}
	f.Close()
	db, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.LSN() != lsn+3 {
		t.Fatalf("replayed to LSN %d, want %d", db.LSN(), lsn+3)
	}
}
