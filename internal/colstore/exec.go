package colstore

// Vectorized execution. A query runs in three stages: (1) zone-map
// pruning decides per segment whether any row can possibly match; (2) the
// filter stage evaluates the AND-conjuncts over the surviving segments'
// typed vectors into a selection list; (3) the aggregate stage feeds the
// selection, in row order, to the engine's own accumulator (kdb.Agg,
// through its typed AddFloat and AddCount entry points) and, for GROUP BY,
// to the engine's own grouping and pager (kdb.Groups). The filter stage
// mirrors the engine's comparisons; the aggregation does not mirror the
// engine, it is the engine's — that is what makes the answers
// byte-identical rather than merely approximately equal.

import (
	"math"
	"strings"

	"repro/internal/kdb"
)

// AnalyticQuery implements kdb.ColumnarBackend. served=false declines the
// query back to the row engine; this is the store's answer for every
// shape it cannot reproduce byte-identically (including shapes the row
// engine would reject with an error — declining preserves the error).
func (s *Store) AnalyticQuery(plan *kdb.AnalyticPlan, args []any) (*kdb.Rows, bool, error) {
	metQueries.Inc()
	ct, ok := s.table(plan.Table)
	if !ok {
		return s.decline(declineUnknownTable)
	}
	filters, reason := compileFilters(ct, plan.Filters, args)
	if reason != "" {
		return s.decline(reason)
	}
	q := &query{store: s, ct: ct, plan: plan, filters: filters}
	var rows *kdb.Rows
	if plan.Grouped {
		rows, ok = q.runGrouped()
	} else {
		rows, ok = q.runGlobal()
	}
	if !ok {
		return s.decline(declineShape)
	}
	s.served.Add(1)
	return rows, true, nil
}

func (s *Store) decline(reason string) (*kdb.Rows, bool, error) {
	s.fallbacks.Add(1)
	metFallbacks[reason].Inc()
	return nil, false, nil
}

// query carries one execution's compiled state.
type query struct {
	store   *Store
	ct      *colTable
	plan    *kdb.AnalyticPlan
	filters []filter
}

// filter is one compiled WHERE conjunct: column ci <op> a typed value.
type filter struct {
	ci    int
	op    string
	isNil bool    // comparing against NULL
	isStr bool    // text comparison; otherwise numeric
	f     float64 // numeric operand (pre-widened; engine compares as float)
	s     string  // text operand
}

// compileFilters resolves and type-checks the conjuncts. It declines
// (a non-empty reason) whenever the row engine would behave in any way a
// pure vector comparison cannot reproduce — chiefly mixed text/numeric
// comparisons, which the engine reports as errors.
func compileFilters(ct *colTable, fs []kdb.AnalyticFilter, args []any) (out []filter, reason string) {
	out = make([]filter, 0, len(fs))
	for _, af := range fs {
		ci, ok := ct.colIndex(af.Col)
		if !ok {
			return nil, declineShape
		}
		val := af.Lit
		if af.Arg >= 0 {
			if af.Arg >= len(args) {
				return nil, declineShape // engine reports placeholder-out-of-range
			}
			v, err := kdb.NormalizeArg(args[af.Arg])
			if err != nil {
				return nil, declineShape
			}
			val = v
		}
		f := filter{ci: ci, op: af.Op}
		text := ct.cols[ci].Type == kdb.TText
		switch x := val.(type) {
		case nil:
			f.isNil = true
		case int64:
			if text {
				return nil, declineTypeMismatch // engine errors on text-vs-numeric
			}
			f.f = float64(x)
		case float64:
			if text {
				return nil, declineTypeMismatch
			}
			f.f = x
		case string:
			if !text {
				return nil, declineTypeMismatch
			}
			f.isStr = true
			f.s = x
		default:
			return nil, declineShape
		}
		out = append(out, f)
	}
	return out, ""
}

// cmpFloat is compareValues' numeric branch verbatim: NaN on either side
// makes both < and > false, so the result is 0 — meaning the engine
// treats NaN as equal to everything, and the vector path must too.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// match evaluates the conjunct for one segment row, replicating
// applyComparison's NULL semantics: against a NULL operand only = and !=
// can be true; a NULL row value matches only !=.
func (f *filter) match(ct *colTable, seg *segment, i int) bool {
	v := seg.cols[f.ci]
	null := v.isNull(i)
	if f.isNil {
		switch f.op {
		case "=":
			return null
		case "!=":
			return !null
		}
		return false
	}
	if null {
		return f.op == "!="
	}
	var c int
	if f.isStr {
		c = strings.Compare(ct.dict.strs[v.codes[i]], f.s)
	} else if v.ints != nil {
		c = cmpFloat(float64(v.ints[i]), f.f)
	} else {
		c = cmpFloat(v.floats[i], f.f)
	}
	switch f.op {
	case "=":
		return c == 0
	case "!=":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

// canSkip reports whether the zone map proves no row of the segment can
// match. It must only ever return true on a proof: a wrong skip is a
// wrong answer, while a missed skip merely costs a scan. NaN disables
// range reasoning entirely — a NaN filter value "equals" every numeric,
// and a NaN cell matches any equality — so either side being NaN keeps
// the segment.
func (f *filter) canSkip(v *colVec) bool {
	if f.isNil {
		switch f.op {
		case "=":
			return v.nulls == nil // no NULL cells, nothing to match
		case "!=":
			return v.nonNull == 0
		}
		return true // <, <=, >, >= against NULL match nothing
	}
	if v.nonNull == 0 {
		// Every cell is NULL; only != matches NULL rows.
		return f.op != "!="
	}
	if f.isStr {
		switch f.op {
		case "=":
			return f.s < v.minS || f.s > v.maxS
		case "<":
			return v.minS >= f.s
		case "<=":
			return v.minS > f.s
		case ">":
			return v.maxS <= f.s
		case ">=":
			return v.maxS < f.s
		case "!=":
			return v.nulls == nil && v.minS == v.maxS && v.minS == f.s
		}
		return false
	}
	if v.hasNaN || math.IsNaN(f.f) {
		return false
	}
	switch f.op {
	case "=":
		return f.f < v.minF || f.f > v.maxF
	case "<":
		return v.minF >= f.f
	case "<=":
		return v.minF > f.f
	case ">":
		return v.maxF <= f.f
	case ">=":
		return v.maxF < f.f
	case "!=":
		return v.nulls == nil && v.minF == v.maxF && v.minF == f.f
	}
	return false
}

// prune applies the zone maps; true means the whole segment is skipped.
func (q *query) prune(seg *segment) bool {
	for i := range q.filters {
		if q.filters[i].canSkip(seg.cols[q.filters[i].ci]) {
			return true
		}
	}
	return false
}

// selection fills sel with the segment-local indexes of matching rows.
func (q *query) selection(seg *segment, sel []int) []int {
	sel = sel[:0]
	if len(q.filters) == 0 {
		for i := 0; i < seg.n; i++ {
			sel = append(sel, i)
		}
		return sel
	}
	for i := 0; i < seg.n; i++ {
		ok := true
		for fi := range q.filters {
			if !q.filters[fi].match(q.ct, seg, i) {
				ok = false
				break
			}
		}
		if ok {
			sel = append(sel, i)
		}
	}
	return sel
}

// scan visits, in order, every segment the zone maps cannot rule out, with
// the segment-local indexes of its matching rows (sel is reused between
// visits). It is the one place a segment is counted as skipped or scanned:
// per store for Stats, process-wide for /metrics.
func (q *query) scan(visit func(seg *segment, sel []int)) {
	var sel []int
	for _, seg := range q.ct.segs {
		if q.prune(seg) {
			q.store.segsSkipped.Add(1)
			metSegsSkipped.Inc()
			continue
		}
		q.store.segsScanned.Add(1)
		metSegsScanned.Inc()
		sel = q.selection(seg, sel)
		visit(seg, sel)
	}
}

// item is a compiled projection column.
type item struct {
	agg  string
	star bool
	ci   int // source column for aggregates
	gi   int // group-key position for plain columns
}

// accumulate feeds a segment's selected rows of item it into acc, one
// typed vector at a time.
func accumulate(seg *segment, sel []int, it item, acc *kdb.Agg) {
	if it.star {
		acc.AddCount(int64(len(sel)))
		return
	}
	v := seg.cols[it.ci]
	switch {
	case v.ints != nil:
		for _, i := range sel {
			if !v.isNull(i) {
				acc.AddFloat(float64(v.ints[i]))
			}
		}
	case v.floats != nil:
		for _, i := range sel {
			if !v.isNull(i) {
				acc.AddFloat(v.floats[i])
			}
		}
	default:
		for _, i := range sel {
			if !v.isNull(i) {
				acc.AddCount(1)
			}
		}
	}
}

// runGlobal executes the single-row aggregate path. Like the engine's, it
// ignores LIMIT and OFFSET. Every item must be an aggregate — a plain
// column here is the engine's "requires GROUP BY" error, which
// compileItems declines.
func (q *query) runGlobal() (*kdb.Rows, bool) {
	items, names, ok := q.compileItems()
	if !ok {
		return nil, false
	}
	aggs := make([]kdb.Agg, len(items))
	q.scan(func(seg *segment, sel []int) {
		for i, it := range items {
			accumulate(seg, sel, it, &aggs[i])
		}
	})
	row := make([]any, len(items))
	for i, it := range items {
		row[i] = aggs[i].Result(it.agg)
	}
	return kdb.NewRows(names, [][]any{row}), true
}

// compileItems resolves the projection. Plain columns must name a
// grouping column under the engine's matching rule (unqualified, or
// qualified identically to the GROUP BY reference); anything else is the
// engine's error, so decline.
func (q *query) compileItems() ([]item, []string, bool) {
	items := make([]item, len(q.plan.Items))
	names := make([]string, len(q.plan.Items))
	for i, pi := range q.plan.Items {
		names[i] = pi.Name
		if pi.Agg == "" {
			gi := -1
			for g, gc := range q.plan.GroupBy {
				if strings.EqualFold(gc.Name, pi.Col.Name) &&
					(pi.Col.Table == "" || strings.EqualFold(gc.Table, pi.Col.Table)) {
					gi = g
					break
				}
			}
			if gi < 0 {
				return nil, nil, false
			}
			items[i] = item{gi: gi}
			continue
		}
		items[i] = item{agg: pi.Agg, star: pi.Star, ci: -1}
		if !pi.Star {
			ci, ok := q.ct.colIndex(pi.Col)
			if !ok {
				return nil, nil, false
			}
			items[i].ci = ci
		}
	}
	return items, names, true
}

// runGrouped executes the GROUP BY path: bucket the matching rows (with a
// dictionary-code fast path for the common single-text-key shape), folding
// each group's aggregates as the rows stream past, then page the groups as
// the engine does.
func (q *query) runGrouped() (*kdb.Rows, bool) {
	items, names, ok := q.compileItems()
	if !ok {
		return nil, false
	}
	keyIdx := make([]int, len(q.plan.GroupBy))
	for i, gc := range q.plan.GroupBy {
		ci, ok := q.ct.colIndex(gc)
		if !ok {
			return nil, false
		}
		keyIdx[i] = ci
	}
	groups := kdb.NewGroups(func() []kdb.Agg { return make([]kdb.Agg, len(items)) })
	if len(keyIdx) == 1 && q.ct.cols[keyIdx[0]].Type == kdb.TText {
		q.groupByDict(groups, items, keyIdx[0])
	} else {
		q.groupGeneric(groups, items, keyIdx)
	}
	rows := groups.Page(q.plan.Offset, q.plan.Limit, func(key []any, aggs []kdb.Agg) []any {
		row := make([]any, len(items))
		for i, it := range items {
			if it.agg == "" {
				row[i] = key[it.gi]
			} else {
				row[i] = aggs[i].Result(it.agg)
			}
		}
		return row
	})
	return kdb.NewRows(names, rows), true
}

// feed adds one matching row to its group's aggregates.
func (q *query) feed(aggs []kdb.Agg, items []item, seg *segment, i int) {
	for ii, it := range items {
		switch {
		case it.agg == "":
		case it.star:
			aggs[ii].AddCount(1)
		default:
			v := seg.cols[it.ci]
			switch {
			case v.isNull(i):
			case v.ints != nil:
				aggs[ii].AddFloat(float64(v.ints[i]))
			case v.floats != nil:
				aggs[ii].AddFloat(v.floats[i])
			default:
				aggs[ii].AddCount(1)
			}
		}
	}
}

// groupByDict groups by a single text column keyed on dictionary codes —
// no key tuple materialization, no key encoding per row. The sentinel
// ^uint32(0) buckets NULLs, which the dictionary can never assign (codes
// are dense from zero). Codes and the engine's key encoding split rows
// into the same groups, opened in the same order.
func (q *query) groupByDict(groups *kdb.Groups[[]kdb.Agg], items []item, ci int) {
	const nullCode = ^uint32(0)
	byCode := make(map[uint32][]kdb.Agg)
	q.scan(func(seg *segment, sel []int) {
		v := seg.cols[ci]
		for _, i := range sel {
			code := nullCode
			if !v.isNull(i) {
				code = v.codes[i]
			}
			aggs, ok := byCode[code]
			if !ok {
				var key any
				if code != nullCode {
					key = q.ct.dict.strs[code]
				}
				aggs = groups.Open([]any{key})
				byCode[code] = aggs
			}
			q.feed(aggs, items, seg, i)
		}
	})
}

// groupGeneric groups by an arbitrary key tuple through the engine's own
// bucketing, so group boundaries (NaN collapsing, -0 vs +0, int vs float
// tags) are identical by construction.
func (q *query) groupGeneric(groups *kdb.Groups[[]kdb.Agg], items []item, keyIdx []int) {
	key := make([]any, len(keyIdx))
	q.scan(func(seg *segment, sel []int) {
		for _, i := range sel {
			for k, ci := range keyIdx {
				key[k] = seg.value(q.ct, i, ci)
			}
			q.feed(groups.Add(key), items, seg, i)
		}
	})
}
