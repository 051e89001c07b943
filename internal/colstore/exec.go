package colstore

// Vectorized execution, a column at a time. A query runs in three stages:
// (1) zone-map pruning decides per segment whether any row can possibly
// match; (2) the filter stage starts a selection list from the segment's
// rows and lets each AND-conjunct narrow it in one loop over its typed
// vector; (3) the aggregate stage writes, for GROUP BY, each selected
// row's group into a group vector (through the engine's own grouping,
// kdb.Groups), then folds each aggregated column once, in row order, into
// the engine's own accumulator (kdb.Agg, through its typed AddFloat and
// AddCount entry points); the engine's pager pages the groups. Every stage
// has a loop for NULL-free vectors that tests no bitmap. The filter
// stage mirrors the engine's comparisons; the aggregation does not mirror
// the engine, it is the engine's — that is what makes the answers
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
	store    *Store
	ct       *colTable
	plan     *kdb.AnalyticPlan
	filters  []filter
	verdicts []uint8 // per text conjunct, a table over dictionary codes: unjudged (0), dropped or kept
}

// filter is one compiled WHERE conjunct: column ci <op> a typed value.
type filter struct {
	ci    int
	op    string
	isNil bool    // comparing against NULL
	text  bool    // text column: the operand is a string or NULL
	at    int32   // a text conjunct's verdict table starts at query.verdicts[at]
	f     float64 // numeric operand (pre-widened; engine compares as float)
	s     string  // text operand

	keep     [3]bool // verdicts(op, isNil)
	keepNull bool
}

// A text conjunct's verdict on a dictionary code.
const (
	dropped = 1
	kept    = 2
)

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
		f := filter{ci: ci, op: af.Op, text: ct.cols[ci].Type == kdb.TText}
		switch x := val.(type) {
		case nil:
			f.isNil = true
		case int64:
			if f.text {
				return nil, declineTypeMismatch // engine errors on text-vs-numeric
			}
			f.f = float64(x)
		case float64:
			if f.text {
				return nil, declineTypeMismatch
			}
			f.f = x
		case string:
			if !f.text {
				return nil, declineTypeMismatch
			}
			f.s = x
		default:
			return nil, declineShape
		}
		f.keep, f.keepNull = verdicts(f.op, f.isNil)
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

// verdicts is applyComparison's rule for op as a table, decided once per
// conjunct: keep[c+1] says whether a non-NULL cell whose comparison with
// the operand came out c is kept, keepNull whether a NULL cell is. Against
// a NULL operand only = and != can be true: = keeps the NULL cells, !=
// every other. Against any other operand a NULL cell matches only !=.
func verdicts(op string, isNil bool) (keep [3]bool, keepNull bool) {
	if isNil {
		ne := op == "!="
		return [3]bool{ne, ne, ne}, op == "="
	}
	return opKeeps[op], op == "!="
}

// opKeeps is each comparison's truth table over cmpFloat's (or
// strings.Compare's) result c, at c+1.
var opKeeps = map[string][3]bool{
	"=": {false, true, false}, "!=": {true, false, true},
	"<": {true, false, false}, "<=": {true, true, false},
	">": {false, false, true}, ">=": {false, true, true},
}

// narrow keeps, in place and in row order, the rows of sel whose cell in v
// passes the conjunct: one loop typed by the vector. A text conjunct
// judges each dictionary code once per query, in verdicts. (Against a NULL
// operand the verdict does not depend on the comparison, which is then
// made for nothing.)
func (f *filter) narrow(ct *colTable, v *colVec, sel []int32, verdicts []uint8) []int32 {
	switch {
	case v.ints != nil:
		return narrowNums(v.ints, v.nulls, sel, f.f, f.keep, f.keepNull)
	case v.floats != nil:
		return narrowNums(v.floats, v.nulls, sel, f.f, f.keep, f.keepNull)
	}
	nulls, codes, strs := v.nulls, v.codes, ct.dict.strs
	verdicts = verdicts[f.at:]
	n := 0
	if nulls == nil {
		for _, i := range sel {
			sel[n] = i
			if f.keeps(verdicts, strs, codes[i]) {
				n++
			}
		}
		return sel[:n]
	}
	for _, i := range sel {
		sel[n] = i
		if nullAt(nulls, i) {
			if f.keepNull {
				n++
			}
		} else if f.keeps(verdicts, strs, codes[i]) {
			n++
		}
	}
	return sel[:n]
}

// keeps reports whether a non-NULL cell holding code c passes the conjunct,
// judging c on first sight (in judge, so that keeps inlines).
func (f *filter) keeps(verdicts []uint8, strs []string, c uint32) bool {
	if verdicts[c] == 0 {
		verdicts[c] = f.judge(strs[c])
	}
	return verdicts[c] == kept
}

func (f *filter) judge(s string) uint8 {
	if f.keep[strings.Compare(s, f.s)+1] {
		return kept
	}
	return dropped
}

// narrowNums is narrow over a numeric vector, compared as the engine
// compares numerics: as floats.
func narrowNums[T int64 | float64](vals []T, nulls []uint64, sel []int32, x float64, keep [3]bool, keepNull bool) []int32 {
	n := 0
	if nulls == nil {
		for _, i := range sel {
			sel[n] = i
			if keep[cmpFloat(float64(vals[i]), x)+1] {
				n++
			}
		}
		return sel[:n]
	}
	for _, i := range sel {
		sel[n] = i
		if nullAt(nulls, i) {
			if keepNull {
				n++
			}
		} else if keep[cmpFloat(float64(vals[i]), x)+1] {
			n++
		}
	}
	return sel[:n]
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
	if f.text {
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

// selection returns the segment-local indexes of matching rows in sel's
// array: it starts from every row of the segment and lets each conjunct
// narrow it in place, stopping once nothing is left.
func (q *query) selection(seg *segment, sel []int32) []int32 {
	sel = resize(sel, seg.n)
	for i := range sel {
		sel[i] = int32(i)
	}
	for fi := range q.filters {
		if len(sel) == 0 {
			break
		}
		f := &q.filters[fi]
		sel = f.narrow(q.ct, seg.cols[f.ci], sel, q.verdicts)
	}
	return sel
}

// resize returns buf at length n, reusing its array when it is large enough.
// A query's row buffers come from the store's pool and grow on its first
// scanned segment — the largest, as only a table's last segment is partial
// — so the later ones reuse them.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// buffer takes a row buffer from the store's pool; the query puts it back
// when it is done with it, and keeps nothing of it in its answer.
func (s *Store) buffer() *[]int32 {
	if buf, ok := s.buffers.Get().(*[]int32); ok {
		return buf
	}
	return new([]int32)
}

// scan visits, in order, every segment the zone maps cannot rule out, with
// the segment-local indexes of its matching rows (sel is reused between
// visits), unless none match. It is the one place a segment is counted as
// skipped or scanned: per store for Stats, process-wide for /metrics.
func (q *query) scan(visit func(seg *segment, sel []int32)) {
	sel := q.store.buffer()
	defer q.store.buffers.Put(sel)
	if verdicts := q.unjudged(); verdicts != nil {
		defer q.store.verdicts.Put(verdicts)
	}
	for _, seg := range q.ct.segs {
		if q.prune(seg) {
			q.store.segsSkipped.Add(1)
			metSegsSkipped.Inc()
			continue
		}
		q.store.segsScanned.Add(1)
		metSegsScanned.Inc()
		if *sel = q.selection(seg, *sel); len(*sel) > 0 {
			visit(seg, *sel)
		}
	}
}

// unjudged sets up q.verdicts, every code unjudged, in an array of the
// store's pool that the query puts back (nil: no text conjunct).
func (q *query) unjudged() *[]uint8 {
	n := 0
	for fi := range q.filters {
		if f := &q.filters[fi]; f.text {
			f.at = int32(n)
			n += len(q.ct.dict.strs)
		}
	}
	if n == 0 {
		return nil
	}
	buf, ok := q.store.verdicts.Get().(*[]uint8)
	if !ok {
		buf = new([]uint8)
	}
	*buf = resize(*buf, n)
	q.verdicts = *buf
	clear(q.verdicts)
	return buf
}

// item is a compiled projection column.
type item struct {
	agg string
	ci  int // source column for aggregates, -1 for COUNT(*)
	gi  int // group-key position for plain columns
	acc int // the item whose accumulator it reads: the first aggregate over its column; -1 when plain
}

// fold feeds item it's column over a segment's selected rows into accs,
// one typed loop per column: row sel[k] goes to accs[grp[k]], or every row
// to accs[0] when grp is nil (the global path). Rows arrive in row order,
// so each group sees its values in the engine's order.
func fold(seg *segment, sel, grp []int32, it item, accs []kdb.Agg) {
	if it.ci < 0 {
		foldCounts(nil, sel, grp, accs)
		return
	}
	switch v := seg.cols[it.ci]; {
	case v.ints != nil:
		foldNums(v.ints, v.nulls, sel, grp, accs)
	case v.floats != nil:
		foldNums(v.floats, v.nulls, sel, grp, accs)
	default:
		foldCounts(v.nulls, sel, grp, accs)
	}
}

// foldNums folds the non-NULL cells of a numeric vector through AddFloat.
func foldNums[T int64 | float64](vals []T, nulls []uint64, sel, grp []int32, accs []kdb.Agg) {
	switch {
	case grp == nil && nulls == nil:
		acc := &accs[0]
		for _, i := range sel {
			acc.AddFloat(float64(vals[i]))
		}
	case grp == nil:
		acc := &accs[0]
		for _, i := range sel {
			if !nullAt(nulls, i) {
				acc.AddFloat(float64(vals[i]))
			}
		}
	case nulls == nil:
		for k, i := range sel {
			accs[grp[k]].AddFloat(float64(vals[i]))
		}
	default:
		for k, i := range sel {
			if !nullAt(nulls, i) {
				accs[grp[k]].AddFloat(float64(vals[i]))
			}
		}
	}
}

// foldCounts folds the rows that are non-NULL in nulls — every row when
// nulls is nil, as for COUNT(*) — through AddCount: values without a
// numeric reading.
func foldCounts(nulls []uint64, sel, grp []int32, accs []kdb.Agg) {
	switch {
	case grp == nil && nulls == nil:
		accs[0].AddCount(int64(len(sel)))
	case grp == nil:
		var n int64
		for _, i := range sel {
			if !nullAt(nulls, i) {
				n++
			}
		}
		accs[0].AddCount(n)
	case nulls == nil:
		for _, g := range grp {
			accs[g].AddCount(1)
		}
	default:
		for k, i := range sel {
			if !nullAt(nulls, i) {
				accs[grp[k]].AddCount(1)
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
	q.scan(func(seg *segment, sel []int32) {
		for i, it := range items {
			if it.acc == i {
				fold(seg, sel, nil, it, aggs[i:i+1])
			}
		}
	})
	row := make([]any, len(items))
	for i, it := range items {
		row[i] = aggs[it.acc].Result(it.agg)
	}
	return kdb.NewRows(names, [][]any{row}), true
}

// compileItems resolves the projection. Plain columns must name a
// grouping column under the engine's matching rule (unqualified, or
// qualified identically to the GROUP BY reference); anything else is the
// engine's error, so decline. Aggregates over one column share an
// accumulator, as do all COUNT(*)s: a kdb.Agg keeps every statistic and
// still sees the column's cells in row order (DESIGN §9).
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
			items[i] = item{gi: gi, acc: -1}
			continue
		}
		it := item{agg: pi.Agg, ci: -1, acc: i}
		if !pi.Star {
			ci, ok := q.ct.colIndex(pi.Col)
			if !ok {
				return nil, nil, false
			}
			it.ci = ci
		}
		for j := range items[:i] {
			if items[j].acc == j && items[j].ci == it.ci {
				it.acc = j
				break
			}
		}
		items[i] = it
	}
	return items, names, true
}

// runGrouped executes the GROUP BY path. Per segment, a grouping pass
// writes each selected row's group into a group vector (with a
// dictionary-code fast path for the common single-text-key shape), then
// each accumulator folds its column into the groups; the groups are paged
// as the engine pages them. A group's state in groups is its slot in aggs.
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
	aggs := make([][]kdb.Agg, len(items)) // aggs[item][slot], for items that own an accumulator
	var slots int32
	groups := kdb.NewGroups(func() int32 {
		for i, it := range items {
			if it.acc == i {
				aggs[i] = append(aggs[i], kdb.Agg{})
			}
		}
		slots++
		return slots - 1
	})
	var group func(seg *segment, sel, grp []int32)
	if len(keyIdx) == 1 && q.ct.cols[keyIdx[0]].Type == kdb.TText {
		group = q.groupByDict(groups, keyIdx[0])
	} else {
		group = q.groupGeneric(groups, keyIdx)
	}
	own := q.store.buffer()
	defer q.store.buffers.Put(own)
	q.scan(func(seg *segment, sel []int32) {
		// The group vector borrows the unused tail of the selection's array
		// when the filters left room there, and is its own buffer otherwise.
		grp := sel[len(sel):cap(sel)]
		if len(grp) < len(sel) {
			*own = resize(*own, seg.n)
			grp = *own
		}
		grp = grp[:len(sel)]
		group(seg, sel, grp)
		for i, it := range items {
			if it.acc == i {
				fold(seg, sel, grp, it, aggs[i])
			}
		}
	})
	rows := groups.Page(q.plan.Offset, q.plan.Limit, func(key []any, g int32) []any {
		row := make([]any, len(items))
		for i, it := range items {
			if it.agg == "" {
				row[i] = key[it.gi]
			} else {
				row[i] = aggs[it.acc][g].Result(it.agg)
			}
		}
		return row
	})
	return kdb.NewRows(names, rows), true
}

// groupByDict groups by a single text column keyed on dictionary codes —
// no key tuple materialization, no key encoding per row. slots, sized by
// this image's dictionary plus one entry for NULL and read only by this
// query, holds 1 + the group of each code seen so far (0: not yet seen).
// Codes and the engine's key encoding split rows into the same groups,
// opened in the same order.
func (q *query) groupByDict(groups *kdb.Groups[int32], ci int) func(seg *segment, sel, grp []int32) {
	strs := q.ct.dict.strs
	slots := make([]int32, len(strs)+1)
	return func(seg *segment, sel, grp []int32) {
		v := seg.cols[ci]
		if v.nulls == nil {
			for k, i := range sel {
				code := v.codes[i]
				if slots[code] == 0 {
					openCode(groups, slots, strs, code)
				}
				grp[k] = slots[code] - 1
			}
			return
		}
		for k, i := range sel {
			code := uint32(len(strs)) // NULL's entry
			if !nullAt(v.nulls, i) {
				code = v.codes[i]
			}
			if slots[code] == 0 {
				openCode(groups, slots, strs, code)
			}
			grp[k] = slots[code] - 1
		}
	}
}

// openCode opens code's group (len(strs) is NULL's) and records it in slots.
func openCode(groups *kdb.Groups[int32], slots []int32, strs []string, code uint32) {
	var key any
	if int(code) < len(strs) {
		key = strs[code]
	}
	slots[code] = groups.Open([]any{key}) + 1
}

// groupGeneric groups by an arbitrary key tuple through the engine's own
// bucketing, so group boundaries (NaN collapsing, -0 vs +0, int vs float
// tags) are identical by construction.
func (q *query) groupGeneric(groups *kdb.Groups[int32], keyIdx []int) func(seg *segment, sel, grp []int32) {
	key := make([]any, len(keyIdx))
	return func(seg *segment, sel, grp []int32) {
		for k, i := range sel {
			for kk, ci := range keyIdx {
				key[kk] = seg.value(q.ct, int(i), ci)
			}
			grp[k] = groups.Add(key)
		}
	}
}
