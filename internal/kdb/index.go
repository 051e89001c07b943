package kdb

// Hash index layer. Every table with an INTEGER PRIMARY KEY gets an
// automatic index on that column, and CREATE INDEX name ON table (col)
// adds named secondary indexes on any column. Indexes accelerate simple
// equality predicates (WHERE col = ?, and the inner side of an equijoin)
// from O(rows) scans to O(1) bucket lookups.
//
// Maintenance strategy: inserts extend a fresh index in place; updates and
// deletes mark every index of the table stale, and the next lookup rebuilds
// the buckets in one O(rows) pass. This favors the store's real workload —
// append-heavy writes from the persistence phase and equality-heavy reads
// from the explorer — without charging mutations for bookkeeping they may
// never benefit from.

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// hashIndex maps canonical column values to row positions in Table.Rows.
type hashIndex struct {
	Name    string // "" for the automatic primary-key index
	col     int
	buckets map[any][]int
	fresh   bool // buckets reflect the current Rows slice
}

// nullKey is the bucket key for NULL values; the engine treats NULL = NULL
// as true, so NULLs index together.
type nullKey struct{}

// hashKey canonicalizes a value for bucket lookup. Numerics collapse to
// float64 to mirror compareValues, which compares all numerics as floats;
// candidates are always re-checked against the real predicate, so the
// collapse can only cost a false candidate, never a wrong answer.
func hashKey(v any) any {
	switch x := v.(type) {
	case nil:
		return nullKey{}
	case int64:
		return float64(x)
	case float64:
		return x
	case bool:
		if x {
			return float64(1)
		}
		return float64(0)
	case string:
		return x
	}
	return v
}

// indexOn returns the table's index covering column col, if any.
func (t *Table) indexOn(col int) *hashIndex {
	for _, ix := range t.indexes {
		if ix.col == col {
			return ix
		}
	}
	return nil
}

func (t *Table) indexNamed(name string) *hashIndex {
	for _, ix := range t.indexes {
		if ix.Name != "" && strings.EqualFold(ix.Name, name) {
			return ix
		}
	}
	return nil
}

// tableVersions issues process-wide unique table versions; see
// Table.version.
var tableVersions atomic.Int64

// noteRewrite stamps a mutation that was not a plain append.
func (t *Table) noteRewrite() {
	t.version = tableVersions.Add(1)
	t.rewritten = t.version
}

// invalidateIndexes marks every index stale; the next lookup rebuilds.
// Called on every row mutation other than an insert (and on every
// rollback, an insert's included), so it doubles as the rewrite stamp.
func (t *Table) invalidateIndexes() {
	t.noteRewrite()
	for _, ix := range t.indexes {
		ix.fresh = false
	}
}

// noteInsert extends fresh indexes with a newly appended row. Stale
// indexes stay stale and catch up on their next rebuild. An append moves
// the version only, never the rewrite stamp.
func (t *Table) noteInsert(pos int, row []any) {
	t.version = tableVersions.Add(1)
	for _, ix := range t.indexes {
		if ix.fresh {
			k := hashKey(row[ix.col])
			ix.buckets[k] = append(ix.buckets[k], pos)
		}
	}
}

// lookup returns the candidate row positions for key, rebuilding the
// buckets if the index is stale. Readers holding only db.mu.RLock
// serialize rebuilds through t.idxMu; writers hold db.mu exclusively so
// they never race this path.
func (t *Table) lookup(ix *hashIndex, key any) []int {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if !ix.fresh {
		metIndexRebuilds.Inc()
		ix.buckets = make(map[any][]int, len(t.Rows))
		for pos, row := range t.Rows {
			k := hashKey(row[ix.col])
			ix.buckets[k] = append(ix.buckets[k], pos)
		}
		ix.fresh = true
	}
	return ix.buckets[hashKey(key)]
}

// eqPred is one top-level "col = value" conjunct of a WHERE clause.
type eqPred struct {
	colIdx int
	val    expr // litExpr or phExpr
}

func isValueExpr(e expr) bool {
	switch e.(type) {
	case litExpr, phExpr:
		return true
	}
	return false
}

// collectEqPreds walks the AND-spine of a WHERE clause and gathers the
// equality conjuncts an index could serve. OR branches and other operators
// are left to the row-by-row filter.
func collectEqPreds(w expr, e *env, out []eqPred) []eqPred {
	x, ok := w.(binExpr)
	if !ok {
		return out
	}
	switch x.Op {
	case "AND":
		out = collectEqPreds(x.L, e, out)
		return collectEqPreds(x.R, e, out)
	case "=":
		col, val := x.L, x.R
		c, ok := col.(colExpr)
		if !ok {
			c, ok = val.(colExpr)
			val = x.L
		}
		if !ok || !isValueExpr(val) {
			return out
		}
		idx, err := e.resolve(c.Ref)
		if err != nil {
			return out
		}
		return append(out, eqPred{colIdx: idx, val: val})
	}
	return out
}

// indexCandidates plans a single-table WHERE clause: if some equality
// conjunct is covered by an index, it returns the candidate row positions
// (which the caller must still filter through the full predicate). The
// boolean reports whether an index was usable.
func (t *Table) indexCandidates(w expr, e *env, args []any) ([]int, bool) {
	for _, p := range collectEqPreds(w, e, nil) {
		ix := t.indexOn(p.colIdx)
		if ix == nil {
			continue
		}
		v, err := evalValue(p.val, args)
		if err != nil {
			return nil, false // surface the error through the scan path
		}
		cv, err := coerce(v, t.Columns[p.colIdx].Type)
		if err != nil {
			// Type-mismatched literal: the scan path decides whether that
			// is an error or simply matches nothing.
			return nil, false
		}
		metIndexHits.Inc()
		return t.lookup(ix, cv), true
	}
	metIndexMisses.Inc()
	return nil, false
}

// encodeGroupKey renders a tuple as an unambiguous string key for DISTINCT
// and GROUP BY: each field is type-tagged and strings are length-prefixed,
// so ("ab","c") and ("a","bc") hash apart.
func encodeGroupKey(vals []any) string {
	var b strings.Builder
	for _, v := range vals {
		switch x := v.(type) {
		case nil:
			b.WriteString("n;")
		case int64:
			b.WriteByte('i')
			b.WriteString(strconv.FormatInt(x, 10))
			b.WriteByte(';')
		case float64:
			b.WriteByte('r')
			b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
			b.WriteByte(';')
		case bool:
			if x {
				b.WriteString("b1;")
			} else {
				b.WriteString("b0;")
			}
		case string:
			b.WriteByte('s')
			b.WriteString(strconv.Itoa(len(x)))
			b.WriteByte(':')
			b.WriteString(x)
		default:
			fmt.Fprintf(&b, "?%T:%v;", v, v)
		}
	}
	return b.String()
}
