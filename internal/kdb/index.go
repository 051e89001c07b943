package kdb

// Access paths. Every table with an INTEGER PRIMARY KEY gets an automatic
// hash index on that column, and CREATE INDEX name ON table (col) adds named
// secondary indexes on any column. A statement reaches rows one of three
// ways, chosen from its WHERE clause's AND-spine before anything executes:
//
//   - index: a "col = value" conjunct on an indexed column of the base
//     table cuts the rows to one hash bucket. SELECT (joined or not), UPDATE
//     and DELETE all take it; for a join, conjuncts are resolved in the
//     environment of the whole joined row, so an unqualified name that is
//     ambiguous across the joined tables is never pushed below the join.
//   - range: on a table whose rows are in primary-key order (what append-only
//     ingest with automatic ids produces), "pk > / >= / < / <= value"
//     conjuncts become binary-searched position bounds. On such a table an
//     ORDER BY of exactly that key ascending needs no sort, and without a
//     sort, aggregate, GROUP BY or DISTINCT the filter stops once
//     OFFSET+LIMIT rows have survived — a keyset page costs O(log n + limit).
//   - scan: everything else.
//
// Each inner-join step then probes the joined table's own hash index on its
// join column (index-join); only when no index covers that column does it
// bucket the joined table for the one query (hash-join), and a predicate
// that does not relate the two sides falls back to the nested loop
// (loop-join). Filters are never pushed onto the joined side and joins are
// never reordered: result order without ORDER BY — base rows in ascending
// position, matches in ascending joined-row position — is part of the
// contract, and buckets list positions in that order.
//
// An access path only ever removes rows the predicate would have removed:
// hash keys collapse numerics (see hashKey), every candidate pair of a join
// is verified with compareEq, and the full WHERE clause is applied to every
// surviving row. The one visible difference from a scan is error
// visibility: a row an index, range or LIMIT cut-off excludes is never shown
// to the rest of the WHERE clause, so a conjunct that would have raised a
// type error only on excluded rows no longer fails the statement.
//
// Maintenance strategy: inserts extend a fresh index in place and keep the
// key-order flag with one comparison; updates, deletes and every rollback
// mark the table's indexes stale and its key order unknown, and the next
// reader rebuilds in one O(rows) pass. This favors the store's real
// workload — append-heavy writes from the persistence phase and
// equality-heavy reads from the explorer — without charging mutations for
// bookkeeping they may never benefit from.

import (
	"math"
	"sort"
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

// invalidateIndexes marks every index stale and the key order unknown; the
// next lookup rebuilds. Called on every row mutation other than an insert
// (and on every rollback, an insert's included), so it doubles as the
// rewrite stamp.
func (t *Table) invalidateIndexes() {
	t.noteRewrite()
	t.pkOrder = pkOrderUnknown
	for _, ix := range t.indexes {
		ix.fresh = false
	}
}

// noteInsert extends fresh indexes with a newly appended row. Stale
// indexes stay stale and catch up on their next rebuild. An append moves
// the version only, never the rewrite stamp.
func (t *Table) noteInsert(pos int, row []any) {
	t.version = tableVersions.Add(1)
	if t.pkOrder == pkOrderSorted && pos > 0 && t.Rows[pos-1][t.pkIndex].(int64) > row[t.pkIndex].(int64) {
		t.pkOrder = pkOrderUnsorted // an explicit id below its predecessor
	}
	for _, ix := range t.indexes {
		if ix.fresh {
			k := hashKey(row[ix.col])
			ix.buckets[k] = append(ix.buckets[k], pos)
		}
	}
}

// freshBuckets returns ix's bucket map, rebuilding it first if the index is
// stale. Readers holding only db.mu.RLock serialize rebuilds through
// t.idxMu; writers hold db.mu exclusively so they never race this path. A
// rebuild installs a new map and never mutates the old one, so a reader may
// keep probing the map it was handed for as long as it holds the read lock
// — a join fetches it once per step instead of locking per probed row.
func (t *Table) freshBuckets(ix *hashIndex) map[any][]int {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if !ix.fresh {
		metIndexRebuilds.Inc()
		buckets := make(map[any][]int, len(t.Rows))
		for pos, row := range t.Rows {
			k := hashKey(row[ix.col])
			buckets[k] = append(buckets[k], pos)
		}
		ix.buckets = buckets
		ix.fresh = true
	}
	return ix.buckets
}

// pkHolders counts the rows holding id as their INTEGER PRIMARY KEY. An id
// above the last key of rows sorted by key is free without a probe — the
// case of every append and every snapshot row, which so need no hash index
// built; anything else probes the automatic primary-key index.
func (t *Table) pkHolders(id int64) int {
	if n := len(t.Rows); t.pkSorted() && (n == 0 || t.Rows[n-1][t.pkIndex].(int64) < id) {
		return 0
	}
	holders := 0
	for _, pos := range t.freshBuckets(t.indexOn(t.pkIndex))[hashKey(id)] {
		if v, ok := t.Rows[pos][t.pkIndex].(int64); ok && v == id {
			holders++
		}
	}
	return holders
}

// pkOrder records whether Table.Rows is non-decreasing in the INTEGER
// PRIMARY KEY. The zero value means "recompute on next use".
type pkOrder uint8

const (
	pkOrderUnknown pkOrder = iota
	pkOrderSorted
	pkOrderUnsorted
)

// pkSorted reports whether Rows is non-decreasing in the primary key, which
// is what append-only ingest with automatic ids produces. It is never
// trusted across a rewrite: invalidateIndexes voids it, and like the hash
// buckets it is recomputed lazily under idxMu by the next reader that asks.
func (t *Table) pkSorted() bool {
	if t.pkIndex < 0 {
		return false
	}
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if t.pkOrder == pkOrderUnknown {
		t.pkOrder = pkOrderSorted
		prev := int64(math.MinInt64)
		for _, row := range t.Rows {
			id, ok := row[t.pkIndex].(int64) // an UPDATE can store NULL
			if !ok || id < prev {
				t.pkOrder = pkOrderUnsorted
				break
			}
			prev = id
		}
	}
	return t.pkOrder == pkOrderSorted
}

// colPred is one top-level "col op value" conjunct of a WHERE clause,
// oriented so the column is on the left.
type colPred struct {
	colIdx int
	op     string // "=", "<", "<=", ">", ">="
	val    expr   // litExpr or phExpr
}

func isValueExpr(e expr) bool {
	switch e.(type) {
	case litExpr, phExpr:
		return true
	}
	return false
}

// collectPreds walks the AND-spine of a WHERE clause and gathers the
// comparison conjuncts an access path could serve. OR branches and other
// operators are left to the row-by-row filter. Column references resolve in
// e — for a join, the environment of the whole joined row — so a name the
// filter would reject as unknown or ambiguous is never collected.
func collectPreds(w expr, e *env, out []colPred) []colPred {
	x, ok := w.(binExpr)
	if !ok {
		return out
	}
	switch x.Op {
	case "AND":
		out = collectPreds(x.L, e, out)
		return collectPreds(x.R, e, out)
	case "=", "<", "<=", ">", ">=":
	default:
		return out
	}
	op, val := x.Op, x.R
	c, ok := x.L.(colExpr)
	if !ok {
		c, ok = x.R.(colExpr)
		op, val = flipOp(x.Op), x.L
	}
	if !ok || !isValueExpr(val) {
		return out
	}
	idx, err := e.resolve(c.Ref)
	if err != nil {
		return out
	}
	return append(out, colPred{colIdx: idx, op: op, val: val})
}

// eqCandidates serves the first equality conjunct on one of t's own columns
// that an index covers: it returns the candidate row positions in ascending
// order (the caller must still filter them through the full predicate).
// preds may come from a joined environment: t's columns are its first
// len(t.Columns) positions, so no index of t covers a joined table's column.
func (t *Table) eqCandidates(preds []colPred, args []any) ([]int, bool) {
	for _, p := range preds {
		if p.op != "=" {
			continue
		}
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
		return t.freshBuckets(ix)[hashKey(cv)], true
	}
	return nil, false
}

// pkRange serves "pk >/>=/</<= value" conjuncts on a table whose rows are
// in primary-key order: it binary-searches the half-open position range
// [lo, hi) outside which no row can satisfy them. ok is false when there is
// no such conjunct, the rows are not in key order, or a bound is not
// numeric (the scan path then decides whether that is an error).
func (t *Table) pkRange(preds []colPred, args []any) (lo, hi int, ok bool) {
	lo, hi = 0, len(t.Rows)
	for _, p := range preds {
		if p.op == "=" || p.colIdx != t.pkIndex {
			continue
		}
		if !ok && !t.pkSorted() {
			return 0, 0, false
		}
		ok = true
		v, err := evalValue(p.val, args)
		if err != nil {
			return 0, 0, false
		}
		if _, numeric := toFloat(v); !numeric {
			return 0, 0, false
		}
		// In key order a lower bound holds from some position on and an
		// upper bound up to some position; search for that edge with the
		// filter's own comparison (numerics compare as floats).
		lower := p.op == ">" || p.op == ">="
		edge := sort.Search(len(t.Rows), func(i int) bool {
			holds, _ := applyComparison(p.op, t.Rows[i][t.pkIndex], v)
			return holds == lower
		})
		if lower {
			lo = max(lo, edge)
		} else {
			hi = min(hi, edge)
		}
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi, ok
}

// countAccess records the one access decision a statement makes for its
// base table: served by an index (or key order), or scanned.
func countAccess(served bool) {
	if served {
		metIndexHits.Inc()
	} else {
		metIndexMisses.Inc()
	}
}

// indexCandidates plans a single-table UPDATE or DELETE: if some equality
// conjunct is covered by an index, it returns the candidate row positions
// (which the caller must still filter through the full predicate). The
// boolean reports whether an index was usable.
func (t *Table) indexCandidates(w expr, e *env, args []any) ([]int, bool) {
	cand, ok := t.eqCandidates(collectPreds(w, e, nil), args)
	countAccess(ok)
	return cand, ok
}

// selectAccess picks how a SELECT reaches its base table's rows — an
// equality index, a primary-key range, or a scan — and returns them in
// ascending row position with the name of the path taken. e is the
// statement's final (joined) environment.
func (t *Table) selectAccess(w expr, e *env, args []any) (rows [][]any, path string) {
	preds := collectPreds(w, e, nil)
	rows, path = t.Rows, "scan"
	if cand, ok := t.eqCandidates(preds, args); ok {
		rows, path = make([][]any, len(cand)), "index"
		for i, pos := range cand {
			rows[i] = t.Rows[pos]
		}
	} else if lo, hi, ok := t.pkRange(preds, args); ok {
		rows, path = t.Rows[lo:hi], "range"
	}
	countAccess(path != "scan")
	return rows, path
}
