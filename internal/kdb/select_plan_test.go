package kdb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// The access-path step of execSelectStats (index.go) may only ever change
// how fast a SELECT runs. This file holds it to that: a generator of random
// databases, mutations and statements, and a reference evaluator that shares
// nothing with the engine but the stored rows — cross product in table
// order, ON and WHERE per row, stable sort, OFFSET/LIMIT.

// ---- generated statements ----

// planRef is a column reference; an empty table means unqualified.
type planRef struct{ table, name string }

func (r planRef) String() string {
	if r.table != "" {
		return r.table + "." + r.name
	}
	return r.name
}

// planOperand is one side of a comparison: a column, or a value rendered as
// a literal or (ph) as a placeholder.
type planOperand struct {
	col *planRef
	val any
	ph  bool
}

// planExpr is a WHERE tree: AND/OR (l, r), NOT (l), or a comparison.
type planExpr struct {
	op       string // "AND", "OR", "NOT", or a comparison operator
	l, r     *planExpr
	lhs, rhs planOperand
}

type planOrder struct {
	ref  planRef
	desc bool
}

// planQuery is one generated SELECT. tables[0] is the base table and on[i]
// joins tables[i+1].
type planQuery struct {
	tables   []string
	on       [][2]planRef
	where    *planExpr
	items    []planRef // nil = *
	count    bool      // SELECT COUNT(*)
	distinct bool
	orderBy  []planOrder
	limit    int // -1 = none
	offset   int
}

func renderValue(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		s := strconv.FormatFloat(x, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	case string:
		return "'" + x + "'"
	}
	panic(fmt.Sprintf("renderValue(%T)", v))
}

// sql renders the statement and its placeholder arguments, numbered left to
// right as the parser numbers them.
func (q *planQuery) sql() (string, []any) {
	var b strings.Builder
	var args []any
	b.WriteString("SELECT ")
	if q.distinct {
		b.WriteString("DISTINCT ")
	}
	switch {
	case q.count:
		b.WriteString("COUNT(*)")
	case q.items == nil:
		b.WriteString("*")
	default:
		for i, it := range q.items {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(it.String())
		}
	}
	b.WriteString(" FROM " + q.tables[0])
	for i, on := range q.on {
		fmt.Fprintf(&b, " JOIN %s ON %s = %s", q.tables[i+1], on[0], on[1])
	}
	operand := func(o planOperand) {
		switch {
		case o.col != nil:
			b.WriteString(o.col.String())
		case o.ph:
			b.WriteString("?")
			args = append(args, o.val)
		default:
			b.WriteString(renderValue(o.val))
		}
	}
	var walk func(x *planExpr)
	walk = func(x *planExpr) {
		switch x.op {
		case "AND", "OR":
			b.WriteString("(")
			walk(x.l)
			b.WriteString(" " + x.op + " ")
			walk(x.r)
			b.WriteString(")")
		case "NOT":
			b.WriteString("NOT (")
			walk(x.l)
			b.WriteString(")")
		default:
			operand(x.lhs)
			b.WriteString(" " + x.op + " ")
			operand(x.rhs)
		}
	}
	if q.where != nil {
		b.WriteString(" WHERE ")
		// The top-level AND spine is rendered bare, as hand-written SQL has it.
		spine := []*planExpr{q.where}
		for spine[0].op == "AND" {
			spine = append([]*planExpr{spine[0].l, spine[0].r}, spine[1:]...)
		}
		for i, c := range spine {
			if i > 0 {
				b.WriteString(" AND ")
			}
			walk(c)
		}
	}
	for i, o := range q.orderBy {
		if i == 0 {
			b.WriteString(" ORDER BY ")
		} else {
			b.WriteString(", ")
		}
		b.WriteString(o.ref.String())
		if o.desc {
			b.WriteString(" DESC")
		}
	}
	if q.limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.limit)
	}
	if q.offset > 0 {
		fmt.Fprintf(&b, " OFFSET %d", q.offset)
	}
	return b.String(), args
}

// ---- the reference evaluator ----

type planResult struct {
	cols []string
	rows [][]any
	err  string
}

// refEnv names every position of a joined row.
type refEnv []planRef

func (e refEnv) resolve(r planRef) (int, error) {
	found := -1
	for i, c := range e {
		if c.name != r.name || (r.table != "" && c.table != r.table) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("kdb: ambiguous column %s", r)
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("kdb: unknown column %s", r)
	}
	return found, nil
}

func refNumber(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

// refCompare is the engine's documented comparison: NULL equals only NULL
// and orders against nothing, numerics compare as floats, text as text, and
// text against a numeric is an error.
func refCompare(op string, l, r any) (bool, error) {
	if l == nil || r == nil {
		switch op {
		case "=":
			return l == nil && r == nil, nil
		case "!=":
			return (l == nil) != (r == nil), nil
		}
		return false, nil
	}
	var c int
	lf, lnum := refNumber(l)
	rf, rnum := refNumber(r)
	ls, lstr := l.(string)
	rs, rstr := r.(string)
	switch {
	case lnum && rnum:
		if lf < rf {
			c = -1
		} else if lf > rf {
			c = 1
		}
	case lstr && rstr:
		c = strings.Compare(ls, rs)
	default:
		return false, fmt.Errorf("kdb: cannot compare %T with %T", l, r)
	}
	switch op {
	case "=":
		return c == 0, nil
	case "!=":
		return c != 0, nil
	case "<":
		return c < 0, nil
	case "<=":
		return c <= 0, nil
	case ">":
		return c > 0, nil
	}
	return c >= 0, nil
}

func (e refEnv) eval(x *planExpr, row []any) (bool, error) {
	switch x.op {
	case "AND", "OR":
		l, err := e.eval(x.l, row)
		if err != nil || l == (x.op == "OR") {
			return l, err
		}
		return e.eval(x.r, row)
	case "NOT":
		v, err := e.eval(x.l, row)
		return !v, err
	}
	operand := func(o planOperand) (any, error) {
		if o.col == nil {
			return o.val, nil
		}
		idx, err := e.resolve(*o.col)
		if err != nil {
			return nil, err
		}
		return row[idx], nil
	}
	l, err := operand(x.lhs)
	if err != nil {
		return false, err
	}
	r, err := operand(x.rhs)
	if err != nil {
		return false, err
	}
	return refCompare(x.op, l, r)
}

// refOrder is ORDER BY's comparison: NULLs first, then by value.
func refOrder(l, r any) int {
	switch {
	case l == nil && r == nil:
		return 0
	case l == nil:
		return -1
	case r == nil:
		return 1
	}
	if lt, _ := refCompare("<", l, r); lt {
		return -1
	}
	if gt, _ := refCompare(">", l, r); gt {
		return 1
	}
	return 0
}

// excusable reports whether index.go's error-visibility rule lets a
// statement skip row without evaluating the rest of its WHERE clause: some
// top-level conjunct comparing a base-table column with a value — the kind
// an access path may serve — is cleanly false for it.
func (q *planQuery) excusable(env refEnv, baseWidth int, row []any) bool {
	spine := []*planExpr{q.where}
	for i := 0; i < len(spine); i++ {
		for spine[i].op == "AND" {
			spine = append(spine, spine[i].r)
			spine[i] = spine[i].l
		}
		c := spine[i]
		col := c.lhs.col
		if col == nil {
			col = c.rhs.col
		}
		if c.op == "OR" || c.op == "NOT" || c.op == "!=" || col == nil || (c.lhs.col != nil && c.rhs.col != nil) {
			continue
		}
		if idx, err := env.resolve(*col); err != nil || idx >= baseWidth {
			continue
		}
		if holds, err := env.eval(c, row); err == nil && !holds {
			return true
		}
	}
	return false
}

// reference evaluates q over db's stored rows. whereErrs collects the
// message of every row whose WHERE evaluation failed. Strictly, the first
// such row fails the statement; with lenient set, a failing row the
// statement may skip (it is excusable, or OFFSET+LIMIT rows already matched
// ahead of it) counts as not matching instead.
func reference(db *DB, q *planQuery, lenient bool) (res planResult, whereErrs map[string]bool) {
	fail := func(err error) (planResult, map[string]bool) {
		return planResult{err: err.Error()}, whereErrs
	}
	var env refEnv
	rows := [][]any{nil}
	for i, name := range q.tables {
		t := db.tables[name]
		for _, c := range t.Columns {
			env = append(env, planRef{name, c.Name})
		}
		var li, ri int
		if i > 0 {
			var err error
			if li, err = env.resolve(q.on[i-1][0]); err != nil {
				return fail(err)
			}
			if ri, err = env.resolve(q.on[i-1][1]); err != nil {
				return fail(err)
			}
		}
		var next [][]any
		for _, l := range rows {
			for _, r := range t.Rows {
				row := append(append([]any(nil), l...), r...)
				if i > 0 {
					if eq, err := refCompare("=", row[li], row[ri]); err != nil {
						return fail(err)
					} else if !eq {
						continue
					}
				}
				next = append(next, row)
			}
		}
		rows = next
	}
	if q.where != nil {
		baseWidth := len(db.tables[q.tables[0]].Columns)
		var kept [][]any
		for _, row := range rows {
			ok, err := env.eval(q.where, row)
			if err != nil {
				if whereErrs == nil {
					whereErrs = map[string]bool{}
				}
				whereErrs[err.Error()] = true
				pageFull := q.limit > 0 && !q.count && !q.distinct && len(kept) >= q.offset+q.limit
				if res.err == "" && !(lenient && (pageFull || q.excusable(env, baseWidth, row))) {
					res.err = err.Error()
				}
				continue
			}
			if ok {
				kept = append(kept, row)
			}
		}
		if res.err != "" {
			return res, whereErrs
		}
		rows = kept
	}
	if q.count {
		return planResult{cols: []string{"count(*)"}, rows: [][]any{{int64(len(rows))}}}, whereErrs
	}
	if len(q.orderBy) > 0 {
		keys := make([]int, len(q.orderBy))
		for i, o := range q.orderBy {
			idx, err := env.resolve(o.ref)
			if err != nil {
				return fail(err)
			}
			keys[i] = idx
		}
		sort.SliceStable(rows, func(a, b int) bool {
			for i, k := range keys {
				if c := refOrder(rows[a][k], rows[b][k]); c != 0 {
					return (c < 0) != q.orderBy[i].desc
				}
			}
			return false
		})
	}
	var proj []int
	if q.items == nil {
		for i, c := range env {
			proj = append(proj, i)
			if c.table == q.tables[0] {
				res.cols = append(res.cols, c.name)
			} else {
				res.cols = append(res.cols, c.String())
			}
		}
	}
	for _, it := range q.items {
		idx, err := env.resolve(it)
		if err != nil {
			return fail(err)
		}
		proj = append(proj, idx)
		res.cols = append(res.cols, it.name)
	}
	seen := map[string]bool{}
	skipped := 0
	for _, row := range rows {
		if q.limit >= 0 && len(res.rows) >= q.limit {
			break
		}
		out := make([]any, len(proj))
		for i, idx := range proj {
			out[i] = row[idx]
		}
		if q.distinct {
			k := fmt.Sprintf("%#v", out)
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		if skipped < q.offset {
			skipped++
			continue
		}
		res.rows = append(res.rows, out)
	}
	return res, whereErrs
}

// ---- the generator ----

const planTables = 3

var (
	planCols     = []string{"id", "k", "f", "s", "v"} // plus u<i>, unique to table i
	planNumeric  = []string{"id", "k", "f", "v"}
	planIndexed  = []string{"k", "f", "s"}
	errPlanAbort = errors.New("rolled back on purpose")
)

type planGen struct {
	t     *testing.T
	r     *rand.Rand
	db    *DB
	keyed [planTables]bool // whose id is its INTEGER PRIMARY KEY
}

func (g *planGen) must(_ Result, err error) {
	g.t.Helper()
	if err != nil {
		g.t.Fatal(err)
	}
}

func planTable(i int) string { return "p" + strconv.Itoa(i) }

// newPlanGen builds three tables of the same shape, so every shared column
// name is ambiguous across a join, each with one column of its own. The
// last table sometimes has no primary key at all.
func newPlanGen(t *testing.T, seed int64) *planGen {
	g := &planGen{t: t, r: rand.New(rand.NewSource(seed)), db: memDB(t)}
	for i := 0; i < planTables; i++ {
		pk := " PRIMARY KEY"
		if i == planTables-1 && g.r.Intn(3) == 0 {
			pk = ""
		}
		g.keyed[i] = pk != ""
		mustExec(t, g.db, fmt.Sprintf("CREATE TABLE %s (id INTEGER%s, k INTEGER, f REAL, s TEXT, v INTEGER, u%d INTEGER)", planTable(i), pk, i))
		for n := g.r.Intn(14); n > 0; n-- {
			g.insert(g.db.Exec, i)
		}
	}
	for n := g.r.Intn(5); n > 0; n-- {
		g.toggleIndex()
	}
	return g
}

func (g *planGen) pick(options ...any) any { return options[g.r.Intn(len(options))] }

// value draws from col's small domain, so joins and filters hit often:
// NULLs, duplicates, and REAL values equal to INTEGER ones.
func (g *planGen) value(col string) any {
	switch col {
	case "id":
		return int64(g.r.Intn(30) - 2)
	case "k":
		return g.pick(nil, int64(0), int64(1), int64(2), int64(3))
	case "f":
		return g.pick(nil, 0.0, 1.0, 1.5, 2.0, 3.0)
	case "s":
		return g.pick(nil, "a", "b", "c")
	}
	return int64(g.r.Intn(4)) // v and u<i>
}

// refKeyTaken is the reference's reading of a primary key: whether some
// stored row of a keyed table holds id in its id column.
func refKeyTaken(rows [][]any, id any) bool {
	for _, row := range rows {
		if row[0] != nil && row[0] == id {
			return true
		}
	}
	return false
}

// insert adds a row — or, given an explicit id some row of a keyed table
// already holds, must be refused and leave the table as it was.
func (g *planGen) insert(exec ExecFunc, table int) {
	g.t.Helper()
	var id any // NULL draws the next automatic id
	if g.r.Intn(4) == 0 {
		id = g.value("id") // explicit: out of order, taken or negative
	}
	rows := g.db.tables[planTable(table)].Rows
	taken := g.keyed[table] && id != nil && refKeyTaken(rows, id)
	_, err := exec(fmt.Sprintf("INSERT INTO %s (id, k, f, s, v, u%d) VALUES (?, ?, ?, ?, ?, ?)", planTable(table), table),
		id, g.value("k"), g.value("f"), g.value("s"), g.value("v"), g.value("u"))
	switch after := g.db.tables[planTable(table)].Rows; {
	case !taken:
		g.must(Result{}, err)
	case err == nil || !strings.Contains(err.Error(), "duplicate primary key"):
		g.t.Fatalf("INSERT of taken id %v into %s: err %v, want a duplicate key refusal", id, planTable(table), err)
	case len(after) != len(rows):
		g.t.Fatalf("refused INSERT into %s left %d rows, had %d", planTable(table), len(after), len(rows))
	}
}

func (g *planGen) toggleIndex() {
	table, col := planTable(g.r.Intn(planTables)), planIndexed[g.r.Intn(len(planIndexed))]
	name := "ix_" + table + "_" + col
	if g.db.tables[table].indexNamed(name) != nil {
		mustExec(g.t, g.db, "DROP INDEX "+name)
	} else {
		mustExec(g.t, g.db, fmt.Sprintf("CREATE INDEX %s ON %s (%s)", name, table, col))
	}
}

// refKeyMoveClashes is the reference's reading of an UPDATE that sets id
// on the rows whose v matches: it is refused when it changes some row's
// key and, afterwards, another row holds that key too.
func refKeyMoveClashes(rows [][]any, id, v any) bool {
	moved, holders := false, 0
	for _, row := range rows {
		switch {
		case row[4] == v:
			moved = moved || row[0] != id
			holders++
		case row[0] == id:
			holders++
		}
	}
	return moved && holders > 1
}

// rewrite is one non-append mutation: it leaves hash buckets stale and the
// primary-key order unknown.
func (g *planGen) rewrite(exec ExecFunc) {
	ti := g.r.Intn(planTables)
	table := planTable(ti)
	switch g.r.Intn(4) {
	case 0:
		g.must(exec("DELETE FROM "+table+" WHERE v = ?", g.value("v")))
	case 1:
		g.must(exec("UPDATE "+table+" SET k = ?, f = ? WHERE v = ?", g.value("k"), g.value("f"), g.value("v")))
	case 2: // move primary keys, sometimes to NULL, sometimes onto a taken one
		id, v := g.pick(nil, g.value("id"), g.value("id")), g.value("v")
		rows := g.db.tables[table].Rows
		was := fmt.Sprint(rows)
		_, err := exec("UPDATE "+table+" SET id = ? WHERE v = ?", id, v)
		switch clash := g.keyed[ti] && id != nil && refKeyMoveClashes(rows, id, v); {
		case !clash:
			g.must(Result{}, err)
		case err == nil || !strings.Contains(err.Error(), "duplicate primary key"):
			g.t.Fatalf("UPDATE of %s moving v=%v onto taken id %v: err %v, want a duplicate key refusal", table, v, id, err)
		case fmt.Sprint(g.db.tables[table].Rows) != was:
			g.t.Fatalf("refused UPDATE of %s changed its rows", table)
		}
	default:
		g.must(exec("UPDATE "+table+" SET s = ? WHERE id = ?", g.value("s"), g.value("id")))
	}
}

// mutate changes the database between statements.
func (g *planGen) mutate() {
	switch g.r.Intn(8) {
	case 0, 1:
		g.insert(g.db.Exec, g.r.Intn(planTables))
	case 2, 3:
		g.rewrite(g.db.Exec)
	case 4: // a batch that rolls back: appends and rewrites undone
		err := g.db.Batch(func(exec ExecFunc) error {
			g.insert(exec, g.r.Intn(planTables))
			g.rewrite(exec)
			g.insert(exec, g.r.Intn(planTables))
			return errPlanAbort
		})
		if !errors.Is(err, errPlanAbort) {
			g.t.Fatal(err)
		}
	case 5:
		g.toggleIndex()
	case 6: // replace every table wholesale
		if err := g.db.RestoreSnapshot(snapshotBytes(g.t, g.db)); err != nil {
			g.t.Fatal(err)
		}
	default: // leave it alone: the next statement finds fresh indexes
	}
}

func (g *planGen) cols(table int) []string {
	return append(append([]string(nil), planCols...), "u"+strconv.Itoa(table))
}

// ref names a column of one of the statement's tables: qualified, or
// unqualified — which resolves only for a single-table statement or a u<i>
// column, and is ambiguous otherwise.
func (g *planGen) ref(tables []int, numeric bool) planRef {
	t := tables[g.r.Intn(len(tables))]
	cols := g.cols(t)
	if numeric {
		cols = append(append([]string(nil), planNumeric...), "u"+strconv.Itoa(t))
	}
	r := planRef{planTable(t), cols[g.r.Intn(len(cols))]}
	if g.r.Intn(6) == 0 {
		r.table = ""
	}
	return r
}

// comparison builds "col op value", "value op col" or "col op col" between
// operands of one kind (numeric or text), so the only per-row errors are
// name errors — except one time in forty, when text meets a number.
func (g *planGen) comparison(tables []int) *planExpr {
	x := &planExpr{op: g.pick("=", "=", "=", "!=", "<", "<=", ">", ">=").(string)}
	ref := g.ref(tables, false)
	x.lhs = planOperand{col: &ref}
	numeric := ref.name != "s"
	if g.r.Intn(40) == 0 {
		numeric = !numeric
	}
	switch {
	case g.r.Intn(8) == 0:
		other := g.ref(tables, numeric)
		if !numeric {
			other.name = "s"
		}
		x.rhs = planOperand{col: &other}
	case numeric:
		v := g.pick(g.value("id"), g.value("k"), g.value("f"), g.value("v"), 2.5, math.Inf(1))
		x.rhs = planOperand{val: v}
	default:
		x.rhs = planOperand{val: g.value("s")}
	}
	if x.rhs.col == nil {
		// Negative and infinite numbers only travel as arguments.
		f, isNum := refNumber(x.rhs.val)
		x.rhs.ph = g.r.Intn(2) == 0 || (isNum && (f < 0 || math.IsInf(f, 0)))
		if g.r.Intn(5) == 0 {
			x.lhs, x.rhs = x.rhs, x.lhs
		}
	}
	return x
}

func (g *planGen) expr(tables []int, depth int) *planExpr {
	if depth == 0 || g.r.Intn(3) == 0 {
		return g.comparison(tables)
	}
	switch g.r.Intn(6) {
	case 0:
		return &planExpr{op: "NOT", l: g.expr(tables, depth-1)}
	case 1, 2:
		return &planExpr{op: "OR", l: g.expr(tables, depth-1), r: g.expr(tables, depth-1)}
	}
	return &planExpr{op: "AND", l: g.expr(tables, depth-1), r: g.expr(tables, depth-1)}
}

// query generates a join over two or three distinct tables, or a
// single-table statement biased towards keyset pages.
func (g *planGen) query() *planQuery {
	order := g.r.Perm(planTables)[:1+g.r.Intn(planTables)]
	q := &planQuery{limit: -1}
	for _, t := range order {
		q.tables = append(q.tables, planTable(t))
	}
	base := planTable(order[0])
	for i := 1; i < len(order); i++ {
		// Join keys of one kind: numeric (INTEGER against INTEGER or REAL,
		// NULLs on both sides) or text.
		col := func(t int, text bool) planRef {
			if text {
				return planRef{planTable(t), "s"}
			}
			return planRef{planTable(t), g.pick("id", "k", "k", "f", "v").(string)}
		}
		text := g.r.Intn(5) == 0
		left, right := col(order[g.r.Intn(i)], text), col(order[i], text)
		switch n := g.r.Intn(10); {
		case n == 0: // both sides on one table: the nested-loop fallback
			right = col(order[g.r.Intn(i)], text)
		case n == 1 && !text: // an unqualified key, unique to the joined table
			right = planRef{"", "u" + strconv.Itoa(order[i])}
		}
		if g.r.Intn(2) == 0 {
			left, right = right, left
		}
		q.on = append(q.on, [2]planRef{left, right})
	}
	keyset := len(order) == 1 && g.r.Intn(2) == 0
	switch {
	case keyset:
		// id > a [AND id <= b] [AND more], ORDER BY id, LIMIT n.
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
		q.where = bound(g.pick(">", ">", ">=").(string))
		if g.r.Intn(3) == 0 {
			q.where = &planExpr{op: "AND", l: q.where, r: bound(g.pick("<", "<=").(string))}
		}
		if g.r.Intn(3) == 0 {
			q.where = &planExpr{op: "AND", l: q.where, r: g.expr(order, 1)}
		}
	case g.r.Intn(8) > 0:
		q.where = g.expr(order, 2)
		if g.r.Intn(2) == 0 {
			// An equality on a base column, the conjunct an index serves —
			// now and then with a value the column's type cannot hold.
			col := g.pick("id", "k", "f", "s").(string)
			val := g.value(col)
			if g.r.Intn(8) == 0 {
				val = g.value(g.pick("s", "s", "k").(string))
			}
			eq := &planExpr{op: "=", lhs: planOperand{col: &planRef{base, col}}, rhs: planOperand{val: val, ph: true}}
			if g.r.Intn(2) == 0 {
				q.where = &planExpr{op: "AND", l: eq, r: q.where}
			} else {
				q.where = &planExpr{op: "AND", l: q.where, r: eq}
			}
		}
	}
	switch n := g.r.Intn(10); {
	case keyset && n < 8, n < 2:
		q.orderBy = []planOrder{{ref: planRef{base, "id"}}}
	case n < 3:
		q.orderBy = []planOrder{{ref: planRef{base, "id"}, desc: true}}
	case n < 5:
		q.orderBy = []planOrder{{ref: g.ref(order, false), desc: g.r.Intn(2) == 0}, {ref: g.ref(order, false)}}
	}
	if keyset || g.r.Intn(3) == 0 {
		q.limit = g.r.Intn(5)
		if g.r.Intn(3) == 0 {
			q.offset = g.r.Intn(4)
		}
	}
	switch g.r.Intn(8) {
	case 0:
		q.count, q.orderBy = true, nil
	case 1, 2:
		for n := 1 + g.r.Intn(3); n > 0; n-- {
			q.items = append(q.items, g.ref(order, false))
		}
		q.distinct = g.r.Intn(3) == 0
	}
	return q
}

// ---- the property ----

// checkPlan runs q through the engine and holds the outcome to the
// reference. Where no row's WHERE evaluation fails the two must agree
// exactly: columns, rows, row order, error. Where some row's does, index.go's
// error-visibility rule applies: a scan with no LIMIT still fails exactly as
// the reference does; otherwise the statement may fail on any failing row,
// or skip the failing rows it is allowed to skip and answer from the rest.
func checkPlan(t *testing.T, db *DB, q *planQuery) (path string) {
	t.Helper()
	text, args := q.sql()
	stmt, err := parseCached(text)
	if err != nil {
		t.Fatalf("generated statement does not parse: %v\n%s", err, text)
	}
	var st selectStats
	var got planResult
	db.mu.RLock()
	rows, err := db.execSelectStats(stmt.(*selectStmt), args, &st)
	db.mu.RUnlock()
	if err != nil {
		got.err = err.Error()
	} else {
		got.cols, got.rows = rows.Columns, rows.All()
	}
	equal := func(want planResult) bool {
		if got.err != "" || want.err != "" {
			return got.err == want.err
		}
		return fmt.Sprintf("%#v", got) == fmt.Sprintf("%#v", want)
	}
	want, whereErrs := reference(db, q, false)
	if whereErrs != nil && (q.limit >= 0 || !strings.HasPrefix(st.path, "scan")) {
		if whereErrs[got.err] {
			return st.path
		}
		want, _ = reference(db, q, true)
	}
	if !equal(want) {
		t.Fatalf("engine and reference disagree (path %q)\n%s  %v\n got: %#v\nwant: %#v", st.path, text, args, got, want)
	}
	return st.path
}

// runPlanSteps interleaves mutations and checked statements, and returns
// how often each plan was taken.
func runPlanSteps(t *testing.T, seed int64, steps int) map[string]int {
	g := newPlanGen(t, seed)
	paths := map[string]int{}
	for i := 0; i < steps; i++ {
		if g.r.Intn(3) == 0 {
			g.mutate()
		}
		paths[checkPlan(t, g.db, g.query())]++
	}
	return paths
}

func TestSelectPlanMatchesReference(t *testing.T) {
	paths := map[string]int{}
	for seed := int64(1); seed <= 60; seed++ {
		for p, n := range runPlanSteps(t, seed, 150) {
			paths[p] += n
		}
	}
	// The generator must keep reaching every access path and join strategy.
	for _, p := range []string{"scan", "index", "range", "index+index-join", "scan+hash-join", "scan+loop-join", "index+index-join+index-join"} {
		if paths[p] < 20 {
			t.Errorf("plan %q taken %d times; the generator no longer exercises it (all plans: %v)", p, paths[p], paths)
		}
	}
}

func FuzzSelectPlan(f *testing.F) {
	f.Add(int64(1), uint8(40))
	f.Add(int64(-99), uint8(200))
	f.Add(int64(20220707), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		runPlanSteps(t, seed, int(steps))
	})
}

// ---- deterministic pins ----

// seedParentChild builds n parents in groups of five, each with three
// children, with every key the join below touches indexed.
func seedParentChild(tb testing.TB, n int) *DB {
	db, err := Open("")
	if err != nil {
		tb.Fatal(err)
	}
	err = db.Batch(func(exec ExecFunc) error {
		for _, ddl := range []string{
			"CREATE TABLE parent (id INTEGER PRIMARY KEY, g INTEGER)",
			"CREATE TABLE child (id INTEGER PRIMARY KEY, parent_id INTEGER, x REAL)",
			"CREATE INDEX ix_parent_g ON parent (g)",
			"CREATE INDEX ix_child_parent ON child (parent_id)",
		} {
			if _, err := exec(ddl); err != nil {
				return err
			}
		}
		for i := 0; i < n; i++ {
			res, err := exec("INSERT INTO parent (g) VALUES (?)", i/5)
			if err != nil {
				return err
			}
			for c := 0; c < 3; c++ {
				if _, err := exec("INSERT INTO child (parent_id, x) VALUES (?, ?)", res.LastInsertID, float64(c)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

const parentChildJoin = `SELECT parent.id, child.x FROM parent JOIN child ON parent.id = child.parent_id
	WHERE parent.g = ? ORDER BY parent.id`

// A join whose keys are all indexed builds nothing per query: no index
// rebuild, and an allocation count that does not grow with the joined table.
func TestIndexedJoinCostIndependentOfTableSize(t *testing.T) {
	allocs := map[int]float64{}
	for _, n := range []int{1000, 10000} {
		db := seedParentChild(t, n)
		query := func() {
			rows, err := db.Query(parentChildJoin, 7)
			if err != nil || rows.Len() != 15 {
				t.Fatalf("n=%d: %d rows, err %v; want 15", n, rows.Len(), err)
			}
		}
		query() // the first use of each index builds its buckets
		rebuilds, joins := metIndexRebuilds.Value(), metJoins["index"].Value()
		allocs[n] = testing.AllocsPerRun(20, query)
		if got := metIndexRebuilds.Value() - rebuilds; got != 0 {
			t.Errorf("n=%d: %d index rebuilds across 21 warm queries, want 0", n, got)
		}
		if got := metJoins["index"].Value() - joins; got != 21 {
			t.Errorf("n=%d: kdb_join_total{strategy=index} moved by %d across 21 queries", n, got)
		}
	}
	if allocs[10000] > allocs[1000]+2 {
		t.Errorf("allocations per query grow with the joined table: %.0f at 1k parents, %.0f at 10k", allocs[1000], allocs[10000])
	}
}

// Without ORDER BY, rows come out in base-row position and, within one base
// row, joined-row position — from in-place-extended and from rebuilt
// buckets alike.
func TestJoinOutputFollowsRowPositions(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE a (id INTEGER PRIMARY KEY, g INTEGER)")
	mustExec(t, db, "CREATE TABLE b (id INTEGER PRIMARY KEY, a_id INTEGER)")
	mustExec(t, db, "CREATE INDEX ix_a_g ON a (g)")
	mustExec(t, db, "CREATE INDEX ix_b_a ON b (a_id)")
	for _, id := range []int{30, 10, 20} { // stored out of key order
		mustExec(t, db, "INSERT INTO a (id, g) VALUES (?, 1)", id)
	}
	for _, r := range [][2]int{{5, 10}, {4, 30}, {3, 10}, {2, 20}, {1, 30}, {6, 99}} {
		mustExec(t, db, "INSERT INTO b (id, a_id) VALUES (?, ?)", r[0], r[1])
	}
	const q = "SELECT a.id, b.id FROM a JOIN b ON a.id = b.a_id WHERE a.g = 1"
	want := "[[30 4] [30 1] [10 5] [10 3] [20 2]]"
	if got := fmt.Sprint(queryAll(t, db, q)); got != want {
		t.Errorf("fresh indexes: %s, want %s", got, want)
	}
	mustExec(t, db, "INSERT INTO b (id, a_id) VALUES (7, 10)") // extends fresh buckets
	mustExec(t, db, "DELETE FROM b WHERE id = 4")              // leaves them stale
	want = "[[30 1] [10 5] [10 3] [10 7] [20 2]]"
	if got := fmt.Sprint(queryAll(t, db, q)); got != want {
		t.Errorf("rebuilt indexes: %s, want %s", got, want)
	}
}

// The key-order flag is kept by appends, voided by every rewrite, and
// recomputed — never trusted — by the next statement that asks.
func TestPrimaryKeyOrderTracking(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
	tbl := func() *Table { return db.tables["t"] }
	page := func() (string, string) {
		t.Helper()
		stmt, err := parseCached("SELECT id FROM t WHERE id > ? ORDER BY id LIMIT 3")
		if err != nil {
			t.Fatal(err)
		}
		var st selectStats
		rows, err := db.execSelectStats(stmt.(*selectStmt), []any{int64(1)}, &st)
		if err != nil {
			t.Fatal(err)
		}
		return st.path, fmt.Sprint(rows.All())
	}
	expect := func(step string, order pkOrder, path, rows string) {
		t.Helper()
		gotPath, gotRows := page()
		if gotPath != path || gotRows != rows || tbl().pkOrder != order {
			t.Errorf("%s: path %q rows %s order %d; want %q %s %d", step, gotPath, gotRows, tbl().pkOrder, path, rows, order)
		}
	}
	for i := 0; i < 5; i++ {
		mustExec(t, db, "INSERT INTO t (v) VALUES (?)", i)
	}
	expect("appended", pkOrderSorted, "range", "[[2] [3] [4]]")
	mustExec(t, db, "INSERT INTO t (id, v) VALUES (9, 9)")
	if _, err := db.Exec("INSERT INTO t (id, v) VALUES (9, 10)"); err == nil { // a refused key leaves the order
		t.Error("a second row with primary key 9 was accepted")
	}
	expect("explicit ids in order", pkOrderSorted, "range", "[[2] [3] [4]]")
	mustExec(t, db, "INSERT INTO t (id, v) VALUES (6, 11)")
	if tbl().pkOrder != pkOrderUnsorted {
		t.Errorf("an id below its predecessor left order %d", tbl().pkOrder)
	}
	expect("out of order", pkOrderUnsorted, "scan", "[[2] [3] [4]]")
	mustExec(t, db, "DELETE FROM t WHERE v = 11")
	if tbl().pkOrder != pkOrderUnknown {
		t.Errorf("DELETE left order %d", tbl().pkOrder)
	}
	expect("offender deleted", pkOrderSorted, "range", "[[2] [3] [4]]")
	mustExec(t, db, "UPDATE t SET id = 0 WHERE v = 4")
	expect("key updated out of order", pkOrderUnsorted, "scan", "[[2] [3] [4]]")
	mustExec(t, db, "UPDATE t SET id = NULL WHERE v = 4")
	expect("key updated to NULL", pkOrderUnsorted, "scan", "[[2] [3] [4]]")
	mustExec(t, db, "UPDATE t SET id = 5 WHERE v = 4")
	expect("key restored", pkOrderSorted, "range", "[[2] [3] [4]]")
	err := db.Batch(func(exec ExecFunc) error {
		if _, err := exec("INSERT INTO t (id, v) VALUES (0, 12)"); err != nil {
			return err
		}
		return errPlanAbort
	})
	if !errors.Is(err, errPlanAbort) || tbl().pkOrder != pkOrderUnknown {
		t.Errorf("rolled-back batch: err %v, order %d", err, tbl().pkOrder)
	}
	expect("rolled back", pkOrderSorted, "range", "[[2] [3] [4]]")
	if err := db.RestoreSnapshot(snapshotBytes(t, db)); err != nil {
		t.Fatal(err)
	}
	if tbl().pkOrder != pkOrderSorted { // replay's key checks track it row by row
		t.Errorf("restored table starts with order %d", tbl().pkOrder)
	}
	expect("restored", pkOrderSorted, "range", "[[2] [3] [4]]")
}

// Readers holding only the read lock share the lazy rebuilds of the hash
// buckets and of the key-order flag; run under -race.
func TestConcurrentReadersAfterRewrite(t *testing.T) {
	db := seedParentChild(t, 200)
	for round := 0; round < 5; round++ {
		mustExec(t, db, "DELETE FROM child WHERE id = ?", 1+round)
		mustExec(t, db, "DELETE FROM parent WHERE id = ?", 200-round)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if rows, err := db.Query(parentChildJoin, 7); err != nil || rows.Len() != 15 {
					t.Errorf("join: %d rows, err %v", rows.Len(), err)
				}
				if rows, err := db.Query("SELECT id FROM parent WHERE id > ? ORDER BY id LIMIT 4", 50); err != nil || fmt.Sprint(rows.All()) != "[[51] [52] [53] [54]]" {
					t.Errorf("keyset page: %v, err %v", rows.All(), err)
				}
			}()
		}
		wg.Wait()
	}
}

// The db.select span names the plan a statement actually took and how many
// stored rows it read to produce its result; __trace_spans and the traces
// behind __slow_queries carry both with no schema change, and each join step
// counts once in kdb_join_total.
func TestSelectSpanNamesPlan(t *testing.T) {
	resetTracing(t)
	telemetry.SetTracing(true)
	telemetry.SetSlowQueryThreshold(1) // every statement is "slow"
	db := seedParentChild(t, 100)      // 100 parents in 20 groups, 300 children
	mustExec(t, db, "CREATE TABLE note (parent_id INTEGER, body TEXT)")
	for i := 1; i <= 10; i++ {
		mustExec(t, db, "INSERT INTO note (parent_id, body) VALUES (?, 'n')", i)
	}
	cases := []struct {
		sql            string
		args           []any
		path           string
		rows, examined int
		joins          [3]int64 // index, hash, loop
	}{
		{"SELECT id FROM parent WHERE g = ?", []any{3}, "index", 5, 5, [3]int64{}},
		{"SELECT id FROM parent WHERE id > ? ORDER BY id LIMIT 4", []any{40}, "range", 4, 4, [3]int64{}},
		{"SELECT id FROM parent WHERE id > ? AND id <= ?", []any{40, 50}, "range", 10, 10, [3]int64{}},
		{"SELECT id FROM parent ORDER BY id LIMIT 4 OFFSET 2", nil, "scan", 4, 6, [3]int64{}},
		{"SELECT id FROM parent WHERE g > ?", []any{17}, "scan", 10, 100, [3]int64{}},
		// A key the column cannot hold falls back to the scan, which decides.
		{"SELECT id FROM parent WHERE id = ?", []any{2.5}, "scan", 0, 100, [3]int64{}},
		{parentChildJoin, []any{3}, "index+index-join", 15, 5 + 15, [3]int64{1, 0, 0}},
		{"SELECT child.id FROM child JOIN parent ON parent.id = child.parent_id WHERE parent.g = ?", []any{3}, "scan+index-join", 15, 300 + 300, [3]int64{1, 0, 0}},
		{"SELECT body FROM parent JOIN note ON note.parent_id = parent.id WHERE parent.g = ?", []any{0}, "index+hash-join", 5, 5 + 5, [3]int64{0, 1, 0}},
		{"SELECT body FROM parent JOIN note ON parent.id = parent.g WHERE parent.id = ?", []any{0}, "index+loop-join", 0, 0, [3]int64{0, 0, 1}},
		// A LIMIT stops the join: two parents read, their five children compared.
		{"SELECT child.id FROM parent JOIN child ON parent.id = child.parent_id LIMIT 5", nil, "scan+index-join", 5, 2 + 5, [3]int64{1, 0, 0}},
		{"SELECT body FROM parent JOIN child ON parent.id = child.parent_id JOIN note ON note.parent_id = parent.id WHERE parent.id = ?",
			[]any{2}, "index+index-join+hash-join", 3, 1 + 3 + 3, [3]int64{1, 1, 0}},
	}
	// A bound the key cannot be ordered against falls back too: the scan's
	// error, not an empty range.
	if _, err := db.Query("SELECT id FROM parent WHERE id > 'x' ORDER BY id LIMIT 1"); err == nil || !strings.Contains(err.Error(), "cannot compare") {
		t.Errorf("text bound on the key: err = %v", err)
	}

	strategies := []string{"index", "hash", "loop"}
	for _, c := range cases {
		telemetry.Traces.Reset()
		var before [3]int64
		for i, s := range strategies {
			before[i] = metJoins[s].Value()
		}
		rows, err := db.Query(c.sql, c.args...)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		for i, s := range strategies {
			if got := metJoins[s].Value() - before[i]; got != c.joins[i] {
				t.Errorf("%s: kdb_join_total{strategy=%s} moved by %d, want %d", c.sql, s, got, c.joins[i])
			}
		}
		want := fmt.Sprintf("path=%s rows=%d rows_examined=%d", c.path, c.rows, c.examined)
		spans := telemetry.Traces.AllSpans()
		if len(spans) != 1 || rows.Len() != c.rows {
			t.Fatalf("%s: %d rows, spans %+v", c.sql, rows.Len(), spans)
		}
		// lock_wait_seconds sits between path and rows; drop it.
		var got []string
		for _, a := range spans[0].Attrs {
			if a.Key != "lock_wait_seconds" {
				got = append(got, a.Key+"="+a.Value)
			}
		}
		if strings.Join(got, " ") != want {
			t.Errorf("%s:\n got %s\nwant %s", c.sql, strings.Join(got, " "), want)
		}
	}

	// The same attributes through the system tables, for the last statement.
	slow := queryAll(t, db, "SELECT trace_id FROM __slow_queries")
	if len(slow) != 1 {
		t.Fatalf("__slow_queries has %d rows, want 1", len(slow))
	}
	attrs := queryAll(t, db, "SELECT attrs FROM __trace_spans WHERE trace_id = ? AND name = 'db.select'", slow[0][0])
	if len(attrs) != 1 || !strings.Contains(attrs[0][0].(string), "path=index+index-join+hash-join") ||
		!strings.Contains(attrs[0][0].(string), "rows_examined=7") {
		t.Errorf("__trace_spans attrs for the slow query: %v", attrs)
	}
}

// BenchmarkJoinStrategy is the EXPERIMENTS ablation row: the same 15-row
// join probing the joined table's own index, and — the index dropped —
// bucketing all 9,000 joined rows for the one query.
func BenchmarkJoinStrategy(b *testing.B) {
	for _, strategy := range []string{"index", "hash"} {
		b.Run(strategy+"-join", func(b *testing.B) {
			db := seedParentChild(b, 3000)
			if strategy == "hash" {
				if _, err := db.Exec("DROP INDEX ix_child_parent"); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := db.Query(parentChildJoin, i%600)
				if err != nil || rows.Len() != 15 {
					b.Fatalf("%d rows, err %v", rows.Len(), err)
				}
			}
		})
	}
}
