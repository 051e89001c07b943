package colstore

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/kdb"
)

var errBoom = errors.New("boom")

// image returns the published columnar image of table.
func (s *Store) image(table string) *colTable {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tables[strings.ToLower(table)]
}

// materialize reads every value of an image back out, segment by segment.
func materialize(ct *colTable) [][]any {
	var out [][]any
	for _, seg := range ct.segs {
		for i := 0; i < seg.n; i++ {
			row := make([]any, len(ct.cols))
			for ci := range ct.cols {
				row[ci] = seg.value(ct, i, ci)
			}
			out = append(out, row)
		}
	}
	return out
}

// checkImage requires the published image of table to deep-equal a
// from-scratch build of the engine's current rows: same segment layout,
// zone maps, null bitmaps, dictionary entries and code order, version.
func (p *pair) checkImage(table string) {
	p.t.Helper()
	got := p.store.image(table)
	if got == nil {
		p.t.Fatalf("no image of %s", table)
	}
	var want *colTable
	if err := p.col.View(func(v *kdb.View) error {
		tv, ok := v.Table(table)
		if !ok {
			return fmt.Errorf("no table %s", table)
		}
		want = buildTable(tv)
		return nil
	}); err != nil {
		p.t.Fatal(err)
	}
	if !sameImage(got, want) {
		p.t.Fatalf("image of %s differs from a fresh build:\n got rows=%d segs=%d dict=%q\nwant rows=%d segs=%d dict=%q",
			table, got.rows, len(got.segs), got.dict.strs, want.rows, len(want.segs), want.dict.strs)
	}
}

// sameImage is reflect.DeepEqual over two images, except that REAL
// vectors compare bit for bit: a NaN cell equals a NaN cell, and -0 and
// +0 differ.
func sameImage(a, b *colTable) bool {
	if len(a.segs) != len(b.segs) {
		return false
	}
	for si, sa := range a.segs {
		sb := b.segs[si]
		if sa.n != sb.n || len(sa.cols) != len(sb.cols) {
			return false
		}
		for ci, va := range sa.cols {
			vb := sb.cols[ci]
			if len(va.floats) != len(vb.floats) || (va.floats == nil) != (vb.floats == nil) {
				return false
			}
			for i, f := range va.floats {
				if math.Float64bits(f) != math.Float64bits(vb.floats[i]) {
					return false
				}
			}
			ca, cb := *va, *vb
			ca.floats, cb.floats = nil, nil
			if !reflect.DeepEqual(ca, cb) {
				return false
			}
		}
	}
	ta, tb := *a, *b
	ta.segs, tb.segs = nil, nil
	return reflect.DeepEqual(ta, tb)
}

// TestIncrementalRefreshEqualsFreshBuild interleaves query rounds with
// random appends, UPDATEs, DELETEs, rolled-back batches, DROP+CREATE and
// RestoreSnapshot on a table whose segments hold 8 rows, so appends keep
// crossing segment boundaries. After every step the columnar answers must
// equal the row engine's and the image a fresh build.
func TestIncrementalRefreshEqualsFreshBuild(t *testing.T) {
	old := segmentRows
	segmentRows = 8
	defer func() { segmentRows = old }()

	rng := rand.New(rand.NewSource(7))
	p := newPair(t)
	const ddl = `CREATE TABLE ev (id INTEGER PRIMARY KEY, grp TEXT, host TEXT, n INTEGER, v REAL)`
	p.exec(ddl)
	nextHost := 0
	row := func() []any {
		// Two text columns whose new strings arrive in different rows: the
		// dictionary's code order must not depend on how rows were batched.
		var grp any = []any{"alpha", "beta", "gamma", nil}[rng.Intn(4)]
		if rng.Intn(4) == 0 {
			grp = fmt.Sprintf("g%d", rng.Intn(50))
		}
		nextHost++
		var n any = int64(rng.Intn(200) - 100)
		if rng.Intn(8) == 0 {
			n = nil
		}
		var v any = float64(rng.Intn(10000)) / 8
		if rng.Intn(8) == 0 {
			v = nil
		}
		return []any{grp, fmt.Sprintf("host%04d", nextHost%37), n, v}
	}
	const ins = `INSERT INTO ev (grp, host, n, v) VALUES (?, ?, ?, ?)`
	appendRows := func(k int) {
		for i := 0; i < k; i++ {
			p.exec(ins, row()...)
		}
	}
	appendRows(20)
	queries := []string{
		"SELECT COUNT(*), SUM(v), MIN(n), MAX(v), AVG(v) FROM ev",
		"SELECT grp, COUNT(*), SUM(v), AVG(n) FROM ev GROUP BY grp",
		"SELECT host, grp, COUNT(*), MAX(n) FROM ev WHERE n >= -20 GROUP BY host, grp",
		"SELECT COUNT(*), SUM(n) FROM ev WHERE id > 40 AND grp != 'beta'",
	}
	for step := 0; step < 250; step++ {
		switch op := rng.Intn(12); op {
		default: // appends dominate, as in the knowledge tables
			appendRows(1 + rng.Intn(2*segmentRows))
		case 7:
			p.exec("UPDATE ev SET v = ?, grp = ? WHERE id = ?", float64(step), fmt.Sprintf("u%d", step), 1+rng.Intn(60))
		case 8:
			p.exec("DELETE FROM ev WHERE id = ?", 1+rng.Intn(60))
		case 9:
			for _, db := range []*kdb.DB{p.col, p.plain} {
				args := row()
				err := db.Batch(func(exec kdb.ExecFunc) error {
					if _, err := exec(ins, args...); err != nil {
						return err
					}
					return errBoom
				})
				if !errors.Is(err, errBoom) {
					t.Fatalf("step %d: failed batch: %v", step, err)
				}
			}
		case 10:
			p.exec("DROP TABLE ev")
			p.exec(ddl)
			appendRows(rng.Intn(3 * segmentRows))
		case 11:
			var snap bytes.Buffer
			if _, err := p.col.WriteSnapshot(&snap); err != nil {
				t.Fatal(err)
			}
			for _, db := range []*kdb.DB{p.col, p.plain} {
				if err := db.RestoreSnapshot(snap.Bytes()); err != nil {
					t.Fatalf("step %d: restore: %v", step, err)
				}
			}
		}
		for _, q := range queries {
			p.check(q)
		}
		p.checkImage("ev")
	}
	st := p.store.Stats()
	if st.Appends == 0 || st.Rebuilds == 0 || st.Fallbacks != 0 {
		t.Fatalf("the run must exercise both refresh paths and never decline: %+v", st)
	}
	if st.Appends < st.Rebuilds {
		t.Fatalf("append-only growth must refresh incrementally: %+v", st)
	}
}

// FuzzAppendRefreshEqualsFreshBuild drives a sequence of append batches,
// of 0 to 3 segments' worth of rows, into a table whose segments hold 8
// rows, so every batch extends a partial tail, opens new segments, or
// both. Cells are NULL, NaN, signed zeros, infinities, ints and short
// texts, so a column's first value that seeds a zone map often arrives
// only in a later batch. After each batch the image must equal a fresh
// build, the store must answer as the row engine does, and the image taken
// before the batch must read as it did.
func FuzzAppendRefreshEqualsFreshBuild(f *testing.F) {
	old := segmentRows
	segmentRows = 8
	f.Cleanup(func() { segmentRows = old })

	texts := []any{nil, "", "a", "b", "zz"}
	ints := []any{nil, int64(0), int64(-3), int64(7), int64(1_000_000)}
	reals := []any{nil, math.NaN(), 0.0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1.5, -2.5}
	queries := []string{
		"SELECT COUNT(*), COUNT(s), MIN(s), MAX(s), SUM(n), MIN(n), SUM(v), MIN(v), MAX(v), AVG(v) FROM ev",
		"SELECT COUNT(*), SUM(n), MAX(v) FROM ev WHERE v >= 0 AND n <= 7 AND s >= 'a'",
		"SELECT s, COUNT(*), COUNT(n), SUM(v), MAX(n) FROM ev GROUP BY s",
	}

	// Batch sizes, each followed by one text, int and real choice per row.
	// A tail of NULLs and NaN, then values.
	f.Add([]byte{3, 0, 0, 1, 0, 0, 0, 0, 0, 1, 2, 2, 6, 6, 3, 7})
	// A full segment, an empty batch, then one row in a new segment.
	f.Add([]byte{8, 2, 1, 2, 2, 1, 2, 2, 1, 2, 2, 1, 2, 2, 1, 2, 2, 1, 2, 2, 1, 2, 2, 1, 2, 0, 1, 4, 4, 5})
	// A partial tail, an empty batch, then three segments' worth of rows
	// that fill the tail, two new segments and part of a third.
	f.Add([]byte{5, 1, 0, 3, 4, 0, 4, 2, 0, 5, 3, 1, 6, 1, 2, 7, 0, 24, 1, 4, 1, 2, 3, 3, 2, 2, 4, 0, 1, 6, 3, 2, 7})
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 12; i++ {
		seed := make([]byte, 16+rng.Intn(96))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pick := func(choices []any) any {
			if len(data) == 0 {
				return nil
			}
			c := choices[int(data[0])%len(choices)]
			data = data[1:]
			return c
		}
		p := newPair(t)
		p.exec(`CREATE TABLE ev (id INTEGER PRIMARY KEY, s TEXT, n INTEGER, v REAL)`)
		for len(data) > 0 {
			k := int(data[0]) % (3*segmentRows + 1)
			data = data[1:]
			held := p.store.image("ev")
			var heldRows [][]any
			if held != nil {
				heldRows = materialize(held)
			}
			for i := 0; i < k; i++ {
				p.exec(`INSERT INTO ev (s, n, v) VALUES (?, ?, ?)`, pick(texts), pick(ints), pick(reals))
			}
			for _, q := range queries {
				p.check(q)
			}
			p.checkImage("ev")
			if held != nil && !deepEqualNaN(materialize(held), heldRows) {
				t.Fatalf("the image at version %d changed under an append of %d rows", held.version, k)
			}
		}
		if st := p.store.Stats(); st.Rebuilds > 1 || st.Fallbacks != 0 {
			t.Fatalf("appends must refresh incrementally from one initial build: %+v", st)
		}
	})
}

// TestPublishedImageNeverChanges: readers walk whatever image is current
// while appends keep publishing new ones that share its full segments and
// dictionary entries. An image must read the same before and after, and
// under -race no append may write memory a published image can reach.
func TestPublishedImageNeverChanges(t *testing.T) {
	old := segmentRows
	segmentRows = 8
	defer func() { segmentRows = old }()

	db, err := kdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	store := Attach(db)
	if _, err := db.Exec(`CREATE TABLE ev (id INTEGER PRIMARY KEY, tag TEXT, v REAL)`); err != nil {
		t.Fatal(err)
	}
	appendAndQuery := func(i int) {
		// A new string per row: the dictionary grows (and reallocates) on
		// every refresh.
		if _, err := db.Exec(`INSERT INTO ev (tag, v) VALUES (?, ?)`, fmt.Sprintf("tag%d", i), float64(i)); err != nil {
			t.Error(err)
		}
		if _, err := db.Query("SELECT tag, COUNT(*), SUM(v) FROM ev GROUP BY tag"); err != nil {
			t.Error(err)
		}
	}
	for i := 0; i < 5; i++ {
		appendAndQuery(i)
	}
	first := store.image("ev")
	firstRows := materialize(first)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ct := store.image("ev")
				before := materialize(ct)
				if _, err := db.Query("SELECT COUNT(*), MAX(v) FROM ev"); err != nil {
					t.Error(err)
					return
				}
				if after := materialize(ct); !reflect.DeepEqual(before, after) || len(after) != ct.rows {
					t.Errorf("image at version %d changed after it was published", ct.version)
					return
				}
			}
		}()
	}
	for i := 5; i < 400; i++ {
		appendAndQuery(i)
	}
	close(stop)
	wg.Wait()
	if got := materialize(first); !reflect.DeepEqual(got, firstRows) {
		t.Fatalf("the first image changed under %d appends:\n got %v\nwant %v", store.Stats().Appends, got, firstRows)
	}
	if st := store.Stats(); st.Appends < 300 || st.Rebuilds != 1 {
		t.Fatalf("appends must refresh incrementally from one initial build: %+v", st)
	}
}

// TestImageKeepsNothingOfTheEngine: UPDATE assigns into the engine's row
// slices in place and an insert after a rollback reuses the backing array,
// so an image that had kept anything it got from the view would change
// under them.
func TestImageKeepsNothingOfTheEngine(t *testing.T) {
	p := newPair(t)
	p.exec(`CREATE TABLE k (id INTEGER PRIMARY KEY, s TEXT, x REAL)`)
	for i := 1; i <= 6; i++ {
		p.exec(`INSERT INTO k (s, x) VALUES (?, ?)`, fmt.Sprintf("s%d", i), float64(i))
	}
	p.check("SELECT s, SUM(x) FROM k GROUP BY s")
	held := p.store.image("k")
	want := materialize(held)

	p.exec(`UPDATE k SET s = 'overwritten', x = -1`)
	err := p.col.Batch(func(exec kdb.ExecFunc) error {
		if _, err := exec(`INSERT INTO k (s, x) VALUES ('rolled back', 0)`); err != nil {
			return err
		}
		return errBoom
	})
	if !errors.Is(err, errBoom) {
		t.Fatal(err)
	}
	p.exec(`INSERT INTO k (s, x) VALUES ('reuses the slot', 7)`)
	p.exec(`DELETE FROM k WHERE id = 2`)
	if got := materialize(held); !reflect.DeepEqual(got, want) {
		t.Fatalf("a held image followed the engine's rows:\n got %v\nwant %v", got, want)
	}
}

// TestFallbackReasons pins the reason label of each decline.
func TestFallbackReasons(t *testing.T) {
	p := newPair(t)
	p.exec(`CREATE TABLE f (id INTEGER PRIMARY KEY, s TEXT, x REAL)`)
	p.exec(`INSERT INTO f (s, x) VALUES ('a', 1)`)
	for _, c := range []struct {
		reason, sql string
	}{
		{declineUnknownTable, "SELECT COUNT(*) FROM nosuch"},
		{declineTypeMismatch, "SELECT COUNT(*) FROM f WHERE s = 3"},
		{declineTypeMismatch, "SELECT COUNT(*) FROM f WHERE x = 'a'"},
		{declineShape, "SELECT COUNT(*) FROM f WHERE nosuch = 1"},
		{declineShape, "SELECT s, COUNT(*) FROM f"},
	} {
		before, total := metFallbacks[c.reason].Value(), p.store.Stats().Fallbacks
		p.check(c.sql)
		if got := metFallbacks[c.reason].Value() - before; got != 1 {
			t.Errorf("%s: colstore_fallback_total{reason=%q} moved by %d, want 1", c.sql, c.reason, got)
		}
		if got := p.store.Stats().Fallbacks - total; got != 1 {
			t.Errorf("%s: Stats.Fallbacks moved by %d, want 1", c.sql, got)
		}
	}
}
