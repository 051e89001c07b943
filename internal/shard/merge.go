package shard

import (
	"fmt"
	"strings"

	"repro/internal/kdb"
)

// The merge layer recombines per-shard result streams into the rows a
// single node would have produced. Everything a single node decides about
// the shape of a result — ORDER BY, DISTINCT, OFFSET/LIMIT, GROUP BY
// bucketing and group order — it leaves to kdb's own result shaping
// (kdb.ShapeRows, kdb.Groups), the same code the engine runs. What is left
// here is the one thing a single node never does: combine per-shard partial
// aggregates. Three shapes exist, selected by the scatter plan:
//
//   - plain:     concatenate, then shape as the engine does
//   - aggregate: combine each shard's single partial row into one row
//   - grouped:   rebucket shard groups by key, combining their partials
//
// The combine algebra is acc: COUNTs and SUMs add up, MIN/MAX compare, and
// AVG, which arrives decomposed into per-shard SUM and COUNT, divides here.
func mergeRows(plan *kdb.ScatterPlan, parts []*kdb.Rows) (*kdb.Rows, error) {
	switch {
	case plan.Grouped:
		return mergeGrouped(plan, parts), nil
	case plan.HasAgg:
		return mergeAggregate(plan, parts), nil
	default:
		return mergePlain(plan, parts)
	}
}

// mergePlain concatenates shard rows and shapes them like the engine's
// plain path: the shards ran with OFFSET stripped (folded into their
// LIMIT), and planner-appended sort columns are projected away.
func mergePlain(plan *kdb.ScatterPlan, parts []*kdb.Rows) (*kdb.Rows, error) {
	cols := plan.Columns
	if cols == nil { // SELECT *: adopt the shard schema
		cols = parts[0].Columns
	}
	var rows [][]any
	for _, p := range parts {
		rows = append(rows, p.All()...)
	}
	order := make([]kdb.OrderKey, len(plan.Order))
	for i, o := range plan.Order {
		idx := o.Idx
		if idx < 0 {
			var err error
			if idx, err = resolveColumn(parts[0].Columns, o.Name); err != nil {
				return nil, err
			}
		}
		order[i] = kdb.OrderKey{Idx: idx, Desc: o.Desc}
	}
	visible := plan.Visible
	if visible < 0 {
		visible = len(cols)
	}
	proj := make([]int, visible)
	for i := range proj {
		proj[i] = i
	}
	return kdb.NewRows(cols, kdb.ShapeRows(rows, order, proj, plan.Distinct, plan.Offset, plan.Limit)), nil
}

// resolveColumn finds an ORDER BY column by name in a shard's returned
// schema — the SELECT * case, where positions are unknowable at plan
// time. Qualified join columns ("t.c") match on their bare suffix.
func resolveColumn(cols []string, name string) (int, error) {
	for i, c := range cols {
		if strings.EqualFold(c, name) || strings.HasSuffix(strings.ToLower(c), "."+strings.ToLower(name)) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("shard: ORDER BY column %q not in shard result %v", name, cols)
}

// acc combines one output column's partials across shards: partial results,
// not raw values, so it never restates the engine's fold (kdb.Agg). The
// zero value is "no input seen", which merges to NULL exactly like the
// engine's aggregates over empty input.
type acc struct {
	val   any
	sum   float64
	count int64
	seen  bool
}

func (a *acc) fold(item kdb.ScatterItem, row []any) {
	switch item.Agg {
	case "":
		if !a.seen {
			a.val, a.seen = row[item.Idx], true
		}
	case "COUNT", "COUNT*":
		if v, ok := row[item.Idx].(int64); ok {
			a.count += v
			a.seen = true
		}
	case "SUM", "AVG":
		if v, ok := row[item.Idx].(float64); ok {
			a.sum += v
			a.seen = true
		}
		if item.Agg == "AVG" {
			if n, ok := row[item.CountIdx].(int64); ok {
				a.count += n
			}
		}
	case "MIN", "MAX":
		v := row[item.Idx]
		if v == nil {
			return
		}
		if !a.seen {
			a.val, a.seen = v, true
			return
		}
		c := kdb.CompareOrder(v, a.val)
		if (item.Agg == "MIN" && c < 0) || (item.Agg == "MAX" && c > 0) {
			a.val = v
		}
	}
}

func (a *acc) result(item kdb.ScatterItem) any {
	switch item.Agg {
	case "COUNT", "COUNT*":
		return a.count
	case "SUM":
		if !a.seen {
			return nil
		}
		return a.sum
	case "AVG":
		if !a.seen || a.count == 0 {
			return nil
		}
		return a.sum / float64(a.count)
	default:
		if !a.seen {
			return nil
		}
		return a.val
	}
}

// mergeAggregate combines each shard's single partial row into the one
// global aggregate row.
func mergeAggregate(plan *kdb.ScatterPlan, parts []*kdb.Rows) *kdb.Rows {
	accs := make([]acc, len(plan.Items))
	for _, p := range parts {
		for _, row := range p.All() {
			combine(accs, plan.Items, row)
		}
	}
	return kdb.NewRows(plan.Columns, [][]any{results(accs, plan.Items)})
}

// mergeGrouped rebuckets shard rows by their group key, combining each
// group's partials, and pages the groups as the engine does.
func mergeGrouped(plan *kdb.ScatterPlan, parts []*kdb.Rows) *kdb.Rows {
	groups := kdb.NewGroups(func() []acc { return make([]acc, len(plan.Items)) })
	key := make([]any, len(plan.GroupIdx))
	for _, p := range parts {
		for _, row := range p.All() {
			for i, idx := range plan.GroupIdx {
				key[i] = row[idx]
			}
			combine(groups.Add(key), plan.Items, row)
		}
	}
	rows := groups.Page(plan.Offset, plan.Limit, func(_ []any, accs []acc) []any {
		return results(accs, plan.Items)
	})
	return kdb.NewRows(plan.Columns, rows)
}

// combine folds one shard row's partials into accs.
func combine(accs []acc, items []kdb.ScatterItem, row []any) {
	for i, item := range items {
		accs[i].fold(item, row)
	}
}

// results is the output row accs stand for.
func results(accs []acc, items []kdb.ScatterItem) []any {
	row := make([]any, len(items))
	for i, item := range items {
		row[i] = accs[i].result(item)
	}
	return row
}
