package colstore

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/kdb"
)

// fuzzEvents fills the ev table of seedEvents and appends two segments of
// the shapes the seeded rows lack (at segmentRows = 32): one where grp, n
// and v are NULL in every row, and one of REAL zeros of both signs, NaNs
// and NULLs.
func fuzzEvents(p *pair) {
	seedEvents(p, 192, rand.New(rand.NewSource(3)))
	for id := 193; id <= 224; id++ {
		p.exec(`INSERT INTO ev (id, grp, region, n, v) VALUES (?, NULL, 'eu', NULL, NULL)`, id)
	}
	vs := []any{0.0, math.Copysign(0, -1), math.NaN(), 1.5, -1.5, nil}
	ns := []any{int64(0), int64(-1), int64(1), nil}
	grps := []any{"alpha", "", nil}
	for id := 225; id <= 256; id++ {
		p.exec(`INSERT INTO ev (id, grp, region, n, v) VALUES (?, ?, 'ap', ?, ?)`,
			id, grps[id%len(grps)], ns[id%len(ns)], vs[id%len(vs)])
	}
}

// fuzzQuery turns fuzz bytes into one analytical SELECT over ev and its
// arguments: one to five items (so repeated columns), zero to three
// conjuncts (column or value on the left, a placeholder or a literal, NULL
// among the operands) and zero to two GROUP BY columns, paged at times.
func fuzzQuery(data []byte) (string, []any) {
	pick := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
	cols := []string{"id", "grp", "region", "n", "v"}
	items := []string{"COUNT(*)", "COUNT(grp)", "COUNT(region)", "MIN(grp)", "MAX(region)",
		"COUNT(n)", "SUM(n)", "MIN(n)", "MAX(n)", "AVG(n)",
		"COUNT(v)", "SUM(v)", "MIN(v)", "MAX(v)", "AVG(v)", "SUM(id)"}
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	texts := []any{"alpha", "beta", "delta", "gamma", "eu", "us", "ap", "", "zzz", nil}
	nums := []any{int64(0), int64(-50), int64(50), int64(200), 0.0, math.Copysign(0, -1),
		math.NaN(), 1.5, -1.5, 50.0, nil, "alpha"}

	var sel, group []string
	for g := pick(3); g > 0; g-- {
		c := []string{"grp", "region", "n", "v"}[pick(4)]
		group = append(group, c)
		sel = append(sel, c)
	}
	for i := 1 + pick(5); i > 0; i-- {
		sel = append(sel, items[pick(len(items))])
	}
	var where []string
	var args []any
	for i := (1 + pick(4)) % 4; i > 0; i-- { // a pick of 3: no WHERE
		col := cols[pick(len(cols))]
		op := ops[pick(len(ops))]
		var val any
		if col == "grp" || col == "region" {
			val = texts[pick(len(texts))]
		} else {
			val = nums[pick(len(nums))]
		}
		operand := "?"
		if val == nil && pick(2) == 1 {
			operand = "NULL"
		} else {
			args = append(args, val)
		}
		if pick(2) == 1 {
			// Value on the left: the same predicate with the operator mirrored.
			mirror := map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
			if mirror == "" {
				mirror = op
			}
			where = append(where, operand+" "+mirror+" "+col)
		} else {
			where = append(where, col+" "+op+" "+operand)
		}
	}
	sql := "SELECT " + strings.Join(sel, ", ") + " FROM ev"
	if len(where) > 0 {
		sql += " WHERE " + strings.Join(where, " AND ")
	}
	if len(group) > 0 {
		sql += " GROUP BY " + strings.Join(group, ", ")
		if pick(3) == 1 {
			sql += fmt.Sprintf(" LIMIT %d OFFSET %d", pick(6), pick(4))
		}
	}
	return sql, args
}

// FuzzColumnarEqualsRowEngine widens TestRandomizedGeneratedQueries'
// grammar to text ranges, NULL operands, COUNT(*) and COUNT(text), two-key
// groups, value-on-left conjuncts, unfiltered scans, several aggregates over
// one column, all-NULL segments and signed zeros:
// every answer the store serves must equal the row engine's, and every
// query it declines is answered by the row engine anyway.
func FuzzColumnarEqualsRowEngine(f *testing.F) {
	old := segmentRows
	segmentRows = 32
	f.Cleanup(func() { segmentRows = old })

	mk := func() *kdb.DB {
		db, err := kdb.Open("")
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(func() { db.Close() })
		return db
	}
	p := &pair{col: mk(), plain: mk()}
	p.store = Attach(p.col)
	seeded := false

	rng := rand.New(rand.NewSource(40))
	for i := 0; i < 24; i++ {
		seed := make([]byte, 24)
		rng.Read(seed)
		f.Add(seed)
	}
	// SELECT grp, region, COUNT(*) FROM ev WHERE grp < 'beta' GROUP BY grp, region
	f.Add([]byte{2, 0, 1, 0, 0, 0, 1, 2, 1, 0, 0})
	// SELECT COUNT(grp) FROM ev WHERE v = NULL
	f.Add([]byte{0, 0, 1, 0, 4, 0, 10, 1, 0})
	// SELECT n, COUNT(region), SUM(v) FROM ev WHERE NULL != grp GROUP BY n
	f.Add([]byte{1, 2, 1, 2, 11, 0, 1, 1, 9, 1, 1, 0})
	// SELECT v, AVG(v), MIN(v) FROM ev WHERE v >= -0.0 AND 0 >= n GROUP BY v LIMIT 3 OFFSET 1
	f.Add([]byte{1, 3, 1, 14, 12, 1, 4, 5, 5, 0, 3, 3, 0, 1, 1, 3, 1})
	// SELECT COUNT(n), SUM(n) FROM ev WHERE region = 'eu' AND n = NULL
	f.Add([]byte{0, 1, 5, 6, 1, 2, 0, 4, 0, 3, 0, 10, 1, 0})
	// SELECT grp, COUNT(*), MAX(v) FROM ev WHERE v = NaN GROUP BY grp
	f.Add([]byte{1, 0, 1, 0, 13, 0, 4, 0, 6, 0, 0})
	// SELECT region, COUNT(*), AVG(v), MIN(v), MAX(v) FROM ev GROUP BY region
	f.Add([]byte{1, 1, 3, 0, 14, 12, 13, 3, 0})
	// SELECT region, COUNT(*) FROM ev GROUP BY region
	f.Add([]byte{1, 1, 0, 0, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p.t = t
		if !seeded {
			fuzzEvents(p)
			seeded = true
		}
		sql, args := fuzzQuery(data)
		p.check(sql, args...)
	})
}
