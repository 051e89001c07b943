package kdb

// Result shaping. Three executors answer a SELECT: the row engine, an
// attached columnar backend (internal/colstore) and the scatter-gather merge
// (internal/shard). Each one shapes its answer with the pieces in this file,
// so the rules are stated once and the executors cannot drift apart:
//
//   - Agg folds one aggregate's input in row order.
//   - Groups buckets rows by their GROUP BY key tuple in first-appearance
//     order and pages the groups in ascending key order.
//   - ShapeRows sorts, projects, dedupes (DISTINCT) and pages a plain result.
//
// What an executor keeps to itself is how it reaches its rows and, for the
// merge, how per-shard partials recombine.

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
)

// CompareOrder exposes the engine's ORDER BY comparison (NULLs first,
// numerics numerically, text lexicographically), so that a key tuple
// decoded elsewhere orders exactly like a stored one.
func CompareOrder(l, r any) int { return compareOrder(l, r) }

// EncodeKey exposes the engine's unambiguous tuple encoding — the one GROUP
// BY and DISTINCT bucket by — for callers that need equal tuples to meet
// (shard placement, row multisets).
func EncodeKey(vals []any) string { return string(appendGroupKey(nil, vals)) }

// appendGroupKey appends a tuple's unambiguous key to b: each field is
// type-tagged and strings are length-prefixed, so ("ab","c") and ("a","bc")
// encode apart, as do 5 and 5.0, and -0 and +0; every NaN encodes alike.
func appendGroupKey(b []byte, vals []any) []byte {
	for _, v := range vals {
		switch x := v.(type) {
		case nil:
			b = append(b, "n;"...)
		case int64:
			b = append(b, 'i')
			b = strconv.AppendInt(b, x, 10)
			b = append(b, ';')
		case float64:
			b = append(b, 'r')
			b = strconv.AppendFloat(b, x, 'g', -1, 64)
			b = append(b, ';')
		case bool:
			if x {
				b = append(b, "b1;"...)
			} else {
				b = append(b, "b0;"...)
			}
		case string:
			b = append(b, 's')
			b = strconv.AppendInt(b, int64(len(x)), 10)
			b = append(b, ':')
			b = append(b, x...)
		default:
			b = fmt.Appendf(b, "?%T:%v;", v, v)
		}
	}
	return b
}

// keyIndex numbers distinct key tuples in order of first appearance. A
// lookup encodes the tuple into a scratch buffer, so only a tuple seen for
// the first time allocates.
type keyIndex struct {
	ids map[string]int
	buf []byte
}

// id returns the tuple's number and whether this is its first appearance.
func (x *keyIndex) id(key []any) (int, bool) {
	x.buf = appendGroupKey(x.buf[:0], key)
	if i, ok := x.ids[string(x.buf)]; ok {
		return i, false
	}
	if x.ids == nil {
		x.ids = map[string]int{}
	}
	i := len(x.ids)
	x.ids[string(x.buf)] = i
	return i, true
}

// Agg folds one aggregate's input, value by value, in row order. NULL is
// skipped and COUNT counts every other value. SUM, AVG, MIN and MAX see only
// the values with a numeric reading (INTEGER, REAL, boolean): the first one
// seeds MIN and MAX, which then move only on a strict < or >, so a leading
// NaN stays; without any they are NULL. SUM and AVG add in row order, which
// is what makes two executors' floating-point answers identical rather than
// close. The zero value is an empty fold.
type Agg struct {
	count    int64 // non-NULL values
	n        int64 // numeric values
	sum      float64
	min, max float64
}

// Add folds one engine value.
func (a *Agg) Add(v any) {
	if f, ok := toFloat(v); ok {
		a.AddFloat(f)
	} else if v != nil {
		a.count++
	}
}

// AddFloat folds one numeric value: the entry point for typed vectors, which
// know a cell's reading without boxing it.
func (a *Agg) AddFloat(f float64) {
	if a.n == 0 {
		a.min, a.max = f, f
	}
	if f < a.min {
		a.min = f
	}
	if f > a.max {
		a.max = f
	}
	a.sum += f
	a.n++
	a.count++
}

// AddCount folds n non-NULL values without a numeric reading — text cells,
// or the rows COUNT(*) counts: COUNT counts them, the others skip them.
func (a *Agg) AddCount(n int64) { a.count += n }

// Result is the fold's value for fn: COUNT, SUM, AVG, MIN or MAX.
func (a *Agg) Result(fn string) any {
	if fn == "COUNT" {
		return a.count
	}
	if a.n == 0 {
		return nil
	}
	switch fn {
	case "SUM":
		return a.sum
	case "AVG":
		return a.sum / float64(a.n)
	case "MIN":
		return a.min
	case "MAX":
		return a.max
	}
	return nil
}

// Groups buckets a result's rows by their GROUP BY key tuple, in order of
// first appearance, each group carrying a state G the caller folds into — a
// reference type, such as a []Agg. Two tuples share a group when EncodeKey
// says they do: NaNs group together, -0 and +0 apart, 5 and 5.0 apart.
type Groups[G any] struct {
	open  func() G
	keys  [][]any
	vals  []G
	index keyIndex
}

// NewGroups returns an empty grouping whose groups start from open().
func NewGroups[G any](open func() G) *Groups[G] {
	return &Groups[G]{open: open}
}

// Add returns the state of key's group, opening the group — with a copy of
// key, so the caller may reuse it — on the tuple's first appearance.
func (gs *Groups[G]) Add(key []any) G {
	i, isNew := gs.index.id(key)
	if isNew {
		return gs.Open(append([]any(nil), key...))
	}
	return gs.vals[i]
}

// Open opens a new group for key, which it keeps, without looking key up:
// for a caller that buckets rows on a key of its own (colstore's dictionary
// codes). A grouping is filled through Add or through Open, never both.
func (gs *Groups[G]) Open(key []any) G {
	g := gs.open()
	gs.keys = append(gs.keys, key)
	gs.vals = append(gs.vals, g)
	return g
}

// clone returns a copy of gs, each group's state copied by cp, that a fold
// can go on into without touching gs.
func (gs *Groups[G]) clone(cp func(G) G) *Groups[G] {
	c := &Groups[G]{open: gs.open, keys: slices.Clone(gs.keys), vals: make([]G, len(gs.vals)), index: keyIndex{ids: maps.Clone(gs.index.ids)}}
	for i, v := range gs.vals {
		c.vals[i] = cp(v)
	}
	return c
}

// Page returns the groups as result rows — row builds one from a group's
// key and state — in ascending key order (CompareOrder over the tuple,
// first appearance among equals), skipping the first offset groups and
// keeping at most limit (negative: no limit). No rows is nil.
func (gs *Groups[G]) Page(offset, limit int, row func(key []any, g G) []any) [][]any {
	if limit == 0 || offset >= len(gs.keys) {
		return nil
	}
	order := make([]int, len(gs.keys))
	for i := range order {
		order[i] = i
	}
	asc := make([]OrderKey, len(gs.keys[0]))
	for i := range asc {
		asc[i].Idx = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return compareRows(gs.keys[order[a]], gs.keys[order[b]], asc) < 0
	})
	order = order[offset:]
	if limit >= 0 && limit < len(order) {
		order = order[:limit]
	}
	out := make([][]any, len(order))
	for i, g := range order {
		out[i] = row(gs.keys[g], gs.vals[g])
	}
	return out
}

// OrderKey is one ORDER BY term: a position in the row and its direction.
type OrderKey struct {
	Idx  int
	Desc bool
}

// compareRows orders two rows by keys: the first key that tells them apart
// decides.
func compareRows(a, b []any, keys []OrderKey) int {
	for _, k := range keys {
		if c := compareOrder(a[k.Idx], b[k.Idx]); c != 0 {
			if k.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// ShapeRows is the rest of a plain SELECT once WHERE has run: rows sorted
// stably (in place) by order — none keeps their order — and each projected
// onto cols; under DISTINCT a projection EncodeKey-equal to an earlier one is
// dropped; then the first offset survivors are skipped and at most limit
// (negative: no limit) kept. No rows is nil.
func ShapeRows(rows [][]any, order []OrderKey, cols []int, distinct bool, offset, limit int) [][]any {
	if limit == 0 {
		return nil
	}
	if len(order) > 0 {
		sort.SliceStable(rows, func(a, b int) bool { return compareRows(rows[a], rows[b], order) < 0 })
	}
	var seen keyIndex
	var out [][]any
	for _, row := range rows {
		proj := make([]any, len(cols))
		for i, c := range cols {
			proj[i] = row[c]
		}
		if distinct {
			if _, isNew := seen.id(proj); !isNew {
				continue
			}
		}
		if offset > 0 {
			offset--
			continue
		}
		out = append(out, proj)
		if len(out) == limit {
			break
		}
	}
	return out
}
