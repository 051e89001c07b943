package kdb

import (
	"fmt"
	"strconv"
	"strings"
)

// Scatter-gather planning. A sharded deployment partitions a table's rows
// across several databases; a SELECT against the whole table must then run
// on every shard and have its per-shard results recombined. This file is
// the kdb side of that split: it reuses the parser to classify statements
// for routing, and compiles a SELECT into (a) the query each shard should
// run and (b) the merge recipe — sort keys, limits, group keys, and
// decomposed aggregates — the coordinator applies to the union of shard
// rows. AVG is the one aggregate that does not distribute, so the planner
// rewrites it into per-shard SUM and COUNT partials and the recipe divides
// at merge time. The coordinator itself lives in internal/shard; keeping
// the planner here lets it share the real parser and the engine's exact
// comparison and group-key semantics instead of approximating them.

// StmtClass is the routing category of a parsed statement.
type StmtClass int

// Statement classes, in routing terms: DDL broadcasts to every shard,
// inserts route to one shard, updates and deletes broadcast (their WHERE
// may match rows anywhere), selects scatter-gather.
const (
	StmtSelect StmtClass = iota
	StmtInsert
	StmtUpdate
	StmtDelete
	StmtDDL
)

// Classify parses a statement and reports its routing class and, for row
// mutations, the target table.
func Classify(sql string) (StmtClass, string, error) {
	stmt, err := parseCached(sql)
	if err != nil {
		return 0, "", err
	}
	switch s := stmt.(type) {
	case *selectStmt:
		return StmtSelect, s.Table, nil
	case *insertStmt:
		return StmtInsert, s.Table, nil
	case *updateStmt:
		return StmtUpdate, s.Table, nil
	case *deleteStmt:
		return StmtDelete, s.Table, nil
	case *createStmt:
		return StmtDDL, s.Table, nil
	case *dropStmt:
		return StmtDDL, s.Table, nil
	case *createIndexStmt:
		return StmtDDL, s.Table, nil
	case *dropIndexStmt:
		return StmtDDL, "", nil
	}
	return 0, "", fmt.Errorf("kdb: unsupported statement")
}

// FirstInsertValue evaluates the first column value of an INSERT's first
// row — the value a coordinator hashes to pick the owning shard when the
// statement carries an explicit key. ok is false when the statement is not
// an INSERT or has no leading value.
func FirstInsertValue(sql string, args []any) (v any, ok bool, err error) {
	stmt, err := parseCached(sql)
	if err != nil {
		return nil, false, err
	}
	ins, isIns := stmt.(*insertStmt)
	if !isIns || len(ins.Rows) == 0 || len(ins.Rows[0]) == 0 {
		return nil, false, nil
	}
	v, err = evalValue(ins.Rows[0][0], args)
	if err != nil {
		return nil, false, err
	}
	return v, true, nil
}

// ScatterItem tells the coordinator how to produce one output column from
// shard rows.
type ScatterItem struct {
	// Agg is "" for a plain (group key) column, or one of COUNT, COUNT*,
	// SUM, MIN, MAX, AVG.
	Agg string
	// Idx is the shard-row index carrying the item's value (for AVG, the
	// partial SUM).
	Idx int
	// CountIdx is the shard-row index of AVG's partial COUNT.
	CountIdx int
}

// ScatterOrder is one merge sort key. Idx indexes the shard row; it is -1
// for SELECT * queries, where the planner cannot know column positions and
// the coordinator resolves Name against the shard's returned columns.
type ScatterOrder struct {
	Idx  int
	Name string
	Desc bool
}

// ScatterPlan is the compiled scatter-gather recipe for one SELECT.
type ScatterPlan struct {
	// ShardSQL is the query every shard runs (aggregates decomposed,
	// needed sort/group columns appended). Arguments pass through
	// unchanged.
	ShardSQL string
	// Columns are the output column names. Nil when the projection is
	// SELECT * — the coordinator then adopts the first shard's columns.
	Columns []string
	// Items drive the aggregate/grouped merge, one per output column.
	Items []ScatterItem
	// Visible is how many leading shard-row columns survive into the
	// output on the plain path; -1 means all (SELECT *).
	Visible int
	// GroupIdx are the shard-row indexes of the GROUP BY key (appended to
	// the shard projection by the planner).
	GroupIdx []int
	// Order are the merge sort keys for the plain path.
	Order []ScatterOrder
	// Limit is the global row limit (-1 none), re-applied after merge.
	Limit int
	// Offset is the global row offset (0 none). Shards run with OFFSET
	// stripped (folded into their LIMIT) and the coordinator skips the
	// first Offset surviving rows exactly once, after the merge.
	Offset int
	// Distinct asks the coordinator to dedupe visible columns after the
	// merge sort.
	Distinct bool
	// Grouped and HasAgg select the merge path: grouped aggregation,
	// global aggregation, or plain concatenate-sort-limit.
	Grouped bool
	HasAgg  bool
}

// PlanScatter compiles a SELECT for scatter-gather execution. It returns
// an error for statements that are not SELECTs.
func PlanScatter(sql string) (*ScatterPlan, error) {
	stmt, err := parseCached(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*selectStmt)
	if !ok {
		return nil, fmt.Errorf("kdb: scatter planning requires SELECT")
	}
	hasAgg := false
	hasStar := false
	for _, it := range sel.Items {
		if it.Agg != "" {
			hasAgg = true
		}
		if it.Star {
			hasStar = true
		}
	}
	plan := &ScatterPlan{
		Limit:    sel.Limit,
		Offset:   sel.Offset,
		Distinct: sel.Distinct,
		Grouped:  len(sel.GroupBy) > 0,
		HasAgg:   hasAgg,
	}
	switch {
	case plan.Grouped:
		planGrouped(plan, sel)
	case hasAgg:
		planAggregate(plan, sel)
	default:
		planPlain(plan, sel, hasStar)
	}
	return plan, nil
}

// itemName reproduces the engine's output naming: the alias when given,
// the bare column name, or "agg(col)" lowercased.
func itemName(it selectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if it.Agg != "" {
		return strings.ToLower(it.Agg) + "(" + it.Col.String() + ")"
	}
	return it.Col.Name
}

// partialItems expands the projection for per-shard execution: every
// aggregate keeps its function except AVG, which becomes SUM and COUNT
// partials. It returns the shard select items and the merge items mapping
// output columns onto shard-row positions.
func partialItems(items []selectItem) (shard []selectItem, merge []ScatterItem, names []string) {
	for _, it := range items {
		names = append(names, itemName(it))
		switch {
		case it.Agg == "AVG":
			merge = append(merge, ScatterItem{Agg: "AVG", Idx: len(shard), CountIdx: len(shard) + 1})
			shard = append(shard,
				selectItem{Agg: "SUM", Col: it.Col},
				selectItem{Agg: "COUNT", Col: it.Col})
		case it.Agg == "COUNT" && it.Col.Name == "*":
			merge = append(merge, ScatterItem{Agg: "COUNT*", Idx: len(shard)})
			shard = append(shard, selectItem{Agg: "COUNT", Col: colRef{Name: "*"}})
		case it.Agg != "":
			merge = append(merge, ScatterItem{Agg: it.Agg, Idx: len(shard)})
			shard = append(shard, selectItem{Agg: it.Agg, Col: it.Col})
		default:
			merge = append(merge, ScatterItem{Idx: len(shard)})
			shard = append(shard, selectItem{Col: it.Col})
		}
	}
	return shard, merge, names
}

// planGrouped: shards run the decomposed aggregation grouped by the same
// keys, with the group key columns appended to the projection so the
// coordinator can rebucket; groups emit in ascending key order on both
// levels, so a per-shard LIMIT is sound (any globally surviving group is
// within the limit on every shard that holds a piece of it).
func planGrouped(plan *ScatterPlan, sel *selectStmt) {
	shardItems, merge, names := partialItems(sel.Items)
	for _, g := range sel.GroupBy {
		plan.GroupIdx = append(plan.GroupIdx, len(shardItems))
		shardItems = append(shardItems, selectItem{Col: g})
	}
	plan.Items = merge
	plan.Columns = names
	out := *sel
	out.Items = shardItems
	out.OrderBy = nil // engine ignores ORDER BY on grouped queries
	// OFFSET is applied once at the coordinator: each shard must return
	// limit+offset groups so the globally surviving window is covered.
	out.Offset = 0
	if out.Limit >= 0 {
		out.Limit += sel.Offset
	}
	plan.ShardSQL = serializeSelect(&out)
}

// planAggregate: global aggregation — every shard returns one partial row
// and the coordinator folds them into one.
func planAggregate(plan *ScatterPlan, sel *selectStmt) {
	shardItems, merge, names := partialItems(sel.Items)
	plan.Items = merge
	plan.Columns = names
	out := *sel
	out.Items = shardItems
	out.OrderBy = nil
	out.Limit = -1 // the engine returns the single row regardless of LIMIT
	out.Offset = 0
	plan.Offset = 0 // the single-row aggregate ignores OFFSET, like LIMIT
	plan.ShardSQL = serializeSelect(&out)
}

// planPlain: shards run the query as written (minus a LIMIT that cannot be
// pushed down safely); the coordinator concatenates, re-sorts with the
// engine's comparison, dedupes DISTINCT projections, and applies the
// global LIMIT. ORDER BY columns missing from an explicit projection are
// appended to the shard query and stripped after the merge.
func planPlain(plan *ScatterPlan, sel *selectStmt, hasStar bool) {
	out := *sel
	out.Items = append([]selectItem(nil), sel.Items...)
	appended := 0
	if hasStar {
		plan.Visible = -1
		for _, oc := range sel.OrderBy {
			plan.Order = append(plan.Order, ScatterOrder{Idx: -1, Name: oc.Col.Name, Desc: oc.Desc})
		}
	} else {
		plan.Visible = len(sel.Items)
		for _, oc := range sel.OrderBy {
			idx := -1
			for i, it := range sel.Items {
				if it.Agg == "" && strings.EqualFold(it.Col.Name, oc.Col.Name) &&
					(oc.Col.Table == "" || strings.EqualFold(it.Col.Table, oc.Col.Table)) {
					idx = i
					break
				}
			}
			if idx < 0 {
				idx = len(out.Items)
				out.Items = append(out.Items, selectItem{Col: oc.Col})
				appended++
			}
			plan.Order = append(plan.Order, ScatterOrder{Idx: idx, Name: oc.Col.Name, Desc: oc.Desc})
		}
		for _, it := range sel.Items {
			plan.Columns = append(plan.Columns, itemName(it))
		}
	}
	// A per-shard LIMIT is a safe top-k push-down — except under DISTINCT
	// with appended sort columns, where a shard may exhaust its limit on
	// rows that later collapse into one distinct projection.
	if sel.Distinct && appended > 0 {
		out.Limit = -1
	}
	// OFFSET cannot be pushed down (each shard holds an unknown share of
	// the skipped prefix); fold it into the per-shard LIMIT instead so the
	// top-(limit+offset) window survives on every shard.
	out.Offset = 0
	if out.Limit >= 0 {
		out.Limit += sel.Offset
	}
	plan.ShardSQL = serializeSelect(&out)
}

// serializeSelect renders a (possibly rewritten) SELECT back to SQL the
// parser round-trips. Placeholders re-emit as '?' in their original order,
// so caller arguments bind identically on every shard.
func serializeSelect(s *selectStmt) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case it.Star:
			b.WriteByte('*')
		case it.Agg != "":
			b.WriteString(it.Agg)
			b.WriteByte('(')
			b.WriteString(it.Col.String())
			b.WriteByte(')')
		default:
			b.WriteString(it.Col.String())
		}
		if it.Alias != "" {
			b.WriteString(" AS ")
			b.WriteString(it.Alias)
		}
	}
	b.WriteString(" FROM ")
	b.WriteString(s.Table)
	for _, j := range s.Joins {
		b.WriteString(" JOIN ")
		b.WriteString(j.Table)
		b.WriteString(" ON ")
		b.WriteString(j.Left.String())
		b.WriteString(" = ")
		b.WriteString(j.Right.String())
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		writeExprSQL(&b, s.Where)
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, oc := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(oc.Col.String())
			if oc.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		b.WriteString(" LIMIT ")
		b.WriteString(strconv.Itoa(s.Limit))
	}
	if s.Offset > 0 {
		b.WriteString(" OFFSET ")
		b.WriteString(strconv.Itoa(s.Offset))
	}
	return b.String()
}

// writeExprSQL renders a WHERE expression. Binary and NOT nodes are fully
// parenthesized, so the rendered precedence is exactly the parsed tree's.
func writeExprSQL(b *strings.Builder, e expr) {
	switch x := e.(type) {
	case litExpr:
		switch v := x.Val.(type) {
		case nil:
			b.WriteString("NULL")
		case int64:
			b.WriteString(strconv.FormatInt(v, 10))
		case float64:
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		case string:
			b.WriteByte('\'')
			b.WriteString(strings.ReplaceAll(v, "'", "''"))
			b.WriteByte('\'')
		default:
			fmt.Fprintf(b, "%v", v)
		}
	case phExpr:
		b.WriteByte('?')
	case colExpr:
		b.WriteString(x.Ref.String())
	case notExpr:
		b.WriteString("(NOT ")
		writeExprSQL(b, x.E)
		b.WriteByte(')')
	case binExpr:
		b.WriteByte('(')
		writeExprSQL(b, x.L)
		b.WriteByte(' ')
		b.WriteString(x.Op)
		b.WriteByte(' ')
		writeExprSQL(b, x.R)
		b.WriteByte(')')
	}
}
