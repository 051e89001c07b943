package kdb

// Columnar routing. An attached analytics backend (internal/colstore) can
// serve the read-heavy analytical shape — aggregates and GROUP BY over a
// single table — from typed column vectors instead of the row store. The
// engine stays authoritative: the hook only forwards queries the backend
// positively claims, and the backend is expected to decline (served=false)
// whenever anything about the query or its data falls outside what it can
// answer byte-identically; the row engine then runs as if no backend were
// attached. Point lookups, joins, and plain scans never leave the row
// engine, so the hash indexes keep serving the OLTP path.

// ColumnarBackend is implemented by an attached columnar store. It must
// return served=false (with no error) to decline a query; any error is
// treated as a decline by the caller.
type ColumnarBackend interface {
	AnalyticQuery(plan *AnalyticPlan, args []any) (rows *Rows, served bool, err error)
}

// columnarHook wraps the backend so the DB can hold it in an
// atomic.Pointer (which needs a concrete element type).
type columnarHook struct{ backend ColumnarBackend }

// SetColumnar attaches (or, with nil, detaches) a columnar analytics
// backend. Safe to call concurrently with queries.
func (db *DB) SetColumnar(b ColumnarBackend) {
	if b == nil {
		db.columnar.Store(nil)
		return
	}
	db.columnar.Store(&columnarHook{backend: b})
}

// selectColumnar is the third read source: analytical SELECTs (aggregates
// or GROUP BY over a single table) that the attached backend serves. It
// runs before the read lock is taken, because the backend re-enters the
// database through TableVersion/View. A backend error is a decline like any
// other, so this source never fails a statement.
func (db *DB) selectColumnar(sel *selectStmt, args []any, st *selectStats) (*Rows, bool) {
	h := db.columnar.Load()
	if h == nil {
		return nil, false
	}
	plan, ok := compileAnalytic(sel)
	if !ok {
		return nil, false
	}
	rows, served, err := h.backend.AnalyticQuery(plan, args)
	if err != nil || !served {
		return nil, false
	}
	st.path = "columnar"
	return rows, true
}

// NormalizeArg converts a caller-supplied placeholder value into the
// engine's value set (int64, float64, string, nil) — exported so a
// columnar backend binds arguments exactly like the row engine.
func NormalizeArg(v any) (any, error) { return normalizeArg(v) }

// AnalyticCol names a column, optionally table-qualified (the qualifier is
// kept so the backend can reject references to other tables the same way
// the engine's resolver would).
type AnalyticCol struct {
	Table string
	Name  string
}

// AnalyticItem is one output column of an analytical projection.
type AnalyticItem struct {
	// Agg is "" for a plain (group key) column, or COUNT, SUM, MIN, MAX,
	// AVG. Star marks COUNT(*).
	Agg  string
	Star bool
	Col  AnalyticCol
	// Name is the output column name, derived exactly as the engine does:
	// the alias when given, else "agg(col)" lowercased, else the bare
	// column name.
	Name string
}

// AnalyticFilter is one conjunct of an AND-only WHERE clause:
// column <op> value, with the value either a literal or a placeholder.
type AnalyticFilter struct {
	Col AnalyticCol
	Op  string // =, !=, <, <=, >, >=
	Lit any    // literal value (may be nil for IS-NULL-style comparisons)
	Arg int    // placeholder index, -1 when Lit carries the value
}

// AnalyticPlan is the compiled shape of an analytical SELECT: a single
// table, AND-only column/value filters, and a projection of aggregates
// and/or group columns. ORDER BY and DISTINCT are absent deliberately —
// the engine ignores both on its aggregate paths, and the backend must
// reproduce that.
type AnalyticPlan struct {
	Table   string
	Items   []AnalyticItem
	GroupBy []AnalyticCol
	Filters []AnalyticFilter
	// Grouped selects the GROUP BY path; otherwise the plan is a global
	// single-row aggregation (which ignores Limit and Offset, like the
	// engine's).
	Grouped bool
	Limit   int
	Offset  int
}

// compileAnalytic classifies a parsed SELECT for columnar routing. ok is
// false for every shape the backend does not handle — joins, SELECT *,
// plain scans, OR/NOT/LIKE/column-vs-column predicates — which then run on
// the row engine as always.
func compileAnalytic(sel *selectStmt) (*AnalyticPlan, bool) {
	if len(sel.Joins) > 0 {
		return nil, false
	}
	hasAgg := false
	for _, it := range sel.Items {
		if it.Star {
			return nil, false
		}
		if it.Agg != "" {
			hasAgg = true
		}
	}
	if !hasAgg && len(sel.GroupBy) == 0 {
		return nil, false
	}
	plan := &AnalyticPlan{
		Table:   sel.Table,
		Grouped: len(sel.GroupBy) > 0,
		Limit:   sel.Limit,
		Offset:  sel.Offset,
	}
	for _, it := range sel.Items {
		item := AnalyticItem{
			Agg:  it.Agg,
			Col:  AnalyticCol{Table: it.Col.Table, Name: it.Col.Name},
			Name: itemName(it),
		}
		if it.Agg == "COUNT" && it.Col.Name == "*" {
			item.Star = true
		}
		plan.Items = append(plan.Items, item)
	}
	for _, g := range sel.GroupBy {
		plan.GroupBy = append(plan.GroupBy, AnalyticCol{Table: g.Table, Name: g.Name})
	}
	filters, ok := analyticFilters(sel.Where)
	if !ok {
		return nil, false
	}
	plan.Filters = filters
	return plan, true
}

// analyticFilters flattens a WHERE tree into AND-only column/value
// conjuncts, or reports it unroutable.
func analyticFilters(w expr) ([]AnalyticFilter, bool) {
	if w == nil {
		return nil, true
	}
	x, ok := w.(binExpr)
	if !ok {
		return nil, false
	}
	if x.Op == "AND" {
		l, ok := analyticFilters(x.L)
		if !ok {
			return nil, false
		}
		r, ok := analyticFilters(x.R)
		if !ok {
			return nil, false
		}
		return append(l, r...), true
	}
	switch x.Op {
	case "=", "!=", "<", "<=", ">", ">=":
	default:
		return nil, false
	}
	if c, isCol := x.L.(colExpr); isCol {
		if _, alsoCol := x.R.(colExpr); alsoCol {
			return nil, false
		}
		f, ok := filterValue(c.Ref, x.Op, x.R)
		if !ok {
			return nil, false
		}
		return []AnalyticFilter{f}, true
	}
	if c, isCol := x.R.(colExpr); isCol {
		// Value on the left: normalize to column-first by flipping the
		// operator's direction.
		f, ok := filterValue(c.Ref, flipOp(x.Op), x.L)
		if !ok {
			return nil, false
		}
		return []AnalyticFilter{f}, true
	}
	return nil, false
}

func filterValue(ref colRef, op string, value expr) (AnalyticFilter, bool) {
	f := AnalyticFilter{
		Col: AnalyticCol{Table: ref.Table, Name: ref.Name},
		Op:  op,
		Arg: -1,
	}
	switch v := value.(type) {
	case litExpr:
		f.Lit = v.Val
	case phExpr:
		f.Arg = v.Index
	default:
		return AnalyticFilter{}, false
	}
	return f, true
}

// flipOp mirrors a comparison across its operands: 5 < col ⟺ col > 5.
func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op // = and != are symmetric
}

// String renders the qualified column name (for diagnostics).
func (c AnalyticCol) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}
