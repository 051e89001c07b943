package kdb

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// UPDATE and DELETE reach their rows through the same walk as SELECT
// (walk.go), over every access path. This file holds them to a naive
// per-row reference, with select_plan_test.go's generator and evaluator.

// planSet is one generated assignment: col = val, always a placeholder.
type planSet struct {
	col string
	val any
}

// planMutation is one generated UPDATE (sets) or DELETE (no sets) of one
// table.
type planMutation struct {
	table int
	sets  []planSet
	where *planExpr // nil: every row
}

// sql renders the statement and its arguments: the assignments' first, as
// the parser numbers placeholders left to right.
func (m *planMutation) sql() (string, []any) {
	name := planTable(m.table)
	sel, args := (&planQuery{tables: []string{name}, where: m.where, limit: -1}).sql()
	where := strings.TrimPrefix(sel, "SELECT * FROM "+name)
	if m.sets == nil {
		return "DELETE FROM " + name + where, args
	}
	var b strings.Builder
	var setArgs []any
	for i, s := range m.sets {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.col + " = ?")
		setArgs = append(setArgs, s.val)
	}
	return "UPDATE " + name + " SET " + b.String() + where, append(setArgs, args...)
}

// refStore is the reference's reading of an assignment: the value a column
// of that type stores, or the refusal.
func refStore(col string, v any) (any, error) {
	switch x := v.(type) {
	case nil:
		return nil, nil
	case string:
		if col == "s" {
			return x, nil
		}
		return nil, fmt.Errorf("cannot store string in INTEGER column")
	case float64:
		if col == "f" {
			return x, nil
		}
	case int64:
		switch col {
		case "f":
			return float64(x), nil
		case "s":
			return nil, fmt.Errorf("cannot store int64 in TEXT column")
		}
		return x, nil
	}
	panic(fmt.Sprintf("refStore(%s, %T)", col, v))
}

// refMutationResult is what a mutation did: rows affected and the table
// after it, or the error that refused it.
type refMutationResult struct {
	affected int
	rows     string
	err      string
}

// referenceMutation applies m to a copy of rows. whereErrs and lenient are
// as for reference: with lenient set, a row whose WHERE evaluation fails is
// skipped when the statement may skip it (it is excusable).
func referenceMutation(g *planGen, m *planMutation, rows [][]any, lenient bool) (res refMutationResult, whereErrs map[string]bool) {
	name := planTable(m.table)
	var env refEnv
	for _, c := range g.cols(m.table) {
		env = append(env, planRef{name, c})
	}
	q := &planQuery{tables: []string{name}, where: m.where}
	var out [][]any
	var moved []int // rows whose key an UPDATE changed
	fail := func(err error) (refMutationResult, map[string]bool) {
		if res.err == "" {
			res.err = err.Error()
		}
		return res, whereErrs
	}
	for _, row := range rows {
		match := true
		if m.where != nil {
			ok, err := env.eval(m.where, row)
			if err != nil {
				if whereErrs == nil {
					whereErrs = map[string]bool{}
				}
				whereErrs[err.Error()] = true
				if !lenient || !q.excusable(env, len(env), row) {
					return fail(err)
				}
			}
			match = ok && err == nil
		}
		if !match {
			out = append(out, row)
			continue
		}
		res.affected++
		if m.sets == nil {
			continue
		}
		next := append([]any(nil), row...)
		for _, s := range m.sets {
			v, err := refStore(s.col, s.val)
			if err != nil {
				return fail(err)
			}
			next[env.mustIndex(s.col)] = v
		}
		if next[0] != row[0] {
			moved = append(moved, len(out))
		}
		out = append(out, next)
	}
	if g.keyed[m.table] && len(moved) > 0 {
		id := out[moved[0]][0]
		holders := 0
		for _, row := range out {
			if id != nil && row[0] == id {
				holders++
			}
		}
		if holders > 1 {
			return fail(fmt.Errorf("kdb: table %q: duplicate primary key %d", name, id))
		}
	}
	res.rows = fmt.Sprint(out)
	return res, whereErrs
}

func (e refEnv) mustIndex(col string) int {
	for i, r := range e {
		if r.name == col {
			return i
		}
	}
	panic("no column " + col)
}

// mutation generates an UPDATE or DELETE whose WHERE clause leans towards
// each access path in turn: a primary-key range, an equality an index may
// serve, anything (mostly a scan), and rarely none at all.
func (g *planGen) mutation() *planMutation {
	m := &planMutation{table: g.r.Intn(planTables)}
	base, tables := planTable(m.table), []int{m.table}
	switch n := g.r.Intn(10); {
	case n < 4:
		id := planRef{base, "id"}
		if g.r.Intn(2) == 0 {
			id.table = ""
		}
		bound := func(op string) *planExpr {
			v := g.pick(g.value("id"), g.value("id"), 2.5, nil, math.Inf(-1))
			x := &planExpr{op: op, lhs: planOperand{col: &id}, rhs: planOperand{val: v, ph: true}}
			if g.r.Intn(5) == 0 {
				x.lhs, x.rhs = x.rhs, x.lhs
			}
			return x
		}
		m.where = bound(g.pick(">", ">=", "<", "<=").(string))
		if g.r.Intn(2) == 0 {
			m.where = &planExpr{op: "AND", l: m.where, r: bound(g.pick(">", "<", "<=").(string))}
		}
		if g.r.Intn(3) == 0 {
			m.where = &planExpr{op: "AND", l: m.where, r: g.expr(tables, 1)}
		}
	case n < 7:
		// An equality on a column an index may cover — now and then with a
		// value the column's type cannot hold.
		col := g.pick("id", "k", "f", "s").(string)
		val := g.value(col)
		if g.r.Intn(8) == 0 {
			val = g.value(g.pick("s", "s", "k").(string))
		}
		m.where = &planExpr{op: "=", lhs: planOperand{col: &planRef{base, col}}, rhs: planOperand{val: val, ph: true}}
		if g.r.Intn(2) == 0 {
			m.where = &planExpr{op: "AND", l: m.where, r: g.expr(tables, 2)}
		}
	case n < 9:
		m.where = g.expr(tables, 2)
	}
	switch g.r.Intn(6) {
	case 0, 1: // DELETE
	case 2:
		m.sets = []planSet{{"k", g.value("k")}, {"f", g.value("f")}}
	case 3: // move primary keys, sometimes to NULL, sometimes onto a taken one
		m.sets = []planSet{{"id", g.pick(nil, g.value("id"), g.value("id"))}}
	case 4: // a value the column cannot hold
		m.sets = []planSet{{"s", g.value("s")}, {g.pick("k", "s").(string), g.pick("a", int64(1))}}
	default:
		m.sets = []planSet{{"s", g.value("s")}, {"v", g.value("v")}}
	}
	return m
}

// checkMutation runs m and holds the outcome to the reference as checkPlan
// does: exact agreement where no row's WHERE evaluation fails; otherwise a
// scan still fails exactly as the reference does, and an index or range
// path may fail on any failing row or skip the rows it is allowed to skip.
// A statement that fails leaves the table as it was.
func checkMutation(t *testing.T, g *planGen, m *planMutation) (path string) {
	t.Helper()
	text, args := m.sql()
	stmt, err := parseCached(text)
	if err != nil {
		t.Fatalf("generated statement does not parse: %v\n%s", err, text)
	}
	var where expr
	switch st := stmt.(type) {
	case *updateStmt:
		where = st.Where
	case *deleteStmt:
		where = st.Where
	}
	tbl := g.db.tables[planTable(m.table)]
	path = tbl.planWalk(tbl.env, nil, where, args).path
	before := make([][]any, len(tbl.Rows))
	for i, row := range tbl.Rows {
		before[i] = append([]any(nil), row...)
	}
	res, err := g.db.Exec(text, args...)
	got := refMutationResult{affected: res.RowsAffected, rows: fmt.Sprint(g.db.tables[planTable(m.table)].Rows)}
	if err != nil {
		if got.rows != fmt.Sprint(before) {
			t.Fatalf("failed statement changed its table (path %q)\n%s  %v\nerr %v", path, text, args, err)
		}
		got = refMutationResult{err: err.Error()}
	}
	want, whereErrs := referenceMutation(g, m, before, false)
	if whereErrs != nil && path != "scan" {
		if whereErrs[got.err] {
			return path
		}
		want, _ = referenceMutation(g, m, before, true)
	}
	if want.err != "" {
		want = refMutationResult{err: want.err}
	}
	if got != want {
		t.Fatalf("engine and reference disagree (path %q)\n%s  %v\n got: %+v\nwant: %+v", path, text, args, got, want)
	}
	return path
}

func runMutationSteps(t *testing.T, seed int64, steps int) map[string]int {
	g := newPlanGen(t, seed)
	paths := map[string]int{}
	for i := 0; i < steps; i++ {
		if g.r.Intn(2) == 0 {
			g.mutate()
		}
		paths[checkMutation(t, g, g.mutation())]++
	}
	return paths
}

func TestMutationPlanMatchesReference(t *testing.T) {
	paths := map[string]int{}
	for seed := int64(1); seed <= 60; seed++ {
		for p, n := range runMutationSteps(t, seed, 100) {
			paths[p] += n
		}
	}
	for _, p := range []string{"scan", "index", "range"} {
		if paths[p] < 100 {
			t.Errorf("path %q taken %d times; the generator no longer exercises it (all paths: %v)", p, paths[p], paths)
		}
	}
}

func FuzzMutationPlan(f *testing.F) {
	f.Add(int64(1), uint8(40))
	f.Add(int64(-7), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		runMutationSteps(t, seed, int(steps))
	})
}

// Both sides of an ON clause naming one table would resolve to one column —
// there are no table aliases — so the table may not appear twice, and the
// statement fails before its walk is planned.
func TestSelectRejectsTableNamedTwice(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE results (id INTEGER PRIMARY KEY, iteration INTEGER)")
	mustExec(t, db, "CREATE TABLE runs (id INTEGER PRIMARY KEY)")
	for i := 0; i < 3; i++ {
		mustExec(t, db, "INSERT INTO results (iteration) VALUES (?)", i)
		mustExec(t, db, "INSERT INTO runs (id) VALUES (?)", i+1)
	}
	for q, name := range map[string]string{
		"SELECT COUNT(*) FROM results JOIN results ON results.iteration = results.iteration":                        "results",
		"SELECT runs.id FROM runs JOIN results ON runs.id = results.id JOIN Results ON runs.id = results.iteration": "Results",
	} {
		accesses := metIndexHits.Value() + metIndexMisses.Value()
		rows, err := db.Query(q)
		want := fmt.Sprintf("kdb: table %q appears twice in one SELECT; kdb has no table aliases", name)
		if err == nil || err.Error() != want {
			t.Errorf("%s: rows %v, err %v; want %s", q, rows, err, want)
		}
		if got := metIndexHits.Value() + metIndexMisses.Value(); got != accesses {
			t.Errorf("%s: planned an access path before failing", q)
		}
	}
}

// A join streams into its answer: COUNT(*) and GROUP BY over an N×N join
// fold the joined rows as they pass and hold their groups, so the
// allocations per query do not grow with the N² rows joined.
func TestJoinStreamsIntoAggregates(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const groups = 3
	allocs := map[int][2]float64{}
	for _, n := range []int{300, 1800} {
		db := memDB(t)
		err := db.Batch(func(exec ExecFunc) error {
			for _, ddl := range []string{
				"CREATE TABLE runs (id INTEGER PRIMARY KEY, site INTEGER, tier INTEGER)",
				"CREATE TABLE sites (id INTEGER PRIMARY KEY, site INTEGER)",
				"CREATE INDEX ix_sites_site ON sites (site)",
			} {
				if _, err := exec(ddl); err != nil {
					return err
				}
			}
			for i := 0; i < n; i++ {
				if _, err := exec("INSERT INTO runs (site, tier) VALUES (7, ?)", i%groups); err != nil {
					return err
				}
				if _, err := exec("INSERT INTO sites (site) VALUES (7)"); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		count := func() {
			rows, err := db.Query("SELECT COUNT(*) FROM runs JOIN sites ON runs.site = sites.site")
			if err != nil || fmt.Sprint(rows.All()) != fmt.Sprintf("[[%d]]", n*n) {
				t.Fatalf("n=%d: COUNT(*) = %v, err %v; want %d", n, rows.All(), err, n*n)
			}
		}
		group := func() {
			rows, err := db.Query("SELECT runs.tier, COUNT(*) FROM runs JOIN sites ON runs.site = sites.site GROUP BY runs.tier")
			per := n / groups * n
			if want := fmt.Sprintf("[[0 %d] [1 %d] [2 %d]]", per, per, per); err != nil || fmt.Sprint(rows.All()) != want {
				t.Fatalf("n=%d: GROUP BY = %v, err %v; want %s", n, rows.All(), err, want)
			}
		}
		allocs[n] = [2]float64{testing.AllocsPerRun(1, count), testing.AllocsPerRun(1, group)}
	}
	for i, q := range []string{"COUNT(*)", "GROUP BY"} {
		if allocs[1800][i] > allocs[300][i]+2 {
			t.Errorf("%s over the join: %.0f allocations per query at N=300, %.0f at N=1800", q, allocs[300][i], allocs[1800][i])
		}
	}
}
