package kdb

// Access paths and the row walk. Every table with an INTEGER PRIMARY KEY
// gets an automatic hash index on that column, and CREATE INDEX name ON
// table (col) adds named secondary indexes on any column. SELECT, UPDATE and
// DELETE reach their rows one way, the walk (walk.go). A statement is
// planned once, its base table's access path chosen from the WHERE clause's
// AND-spine before any row is read:
//
//   - index: a "col = value" conjunct on an indexed column of the base
//     table cuts the rows to one hash bucket. For a join, conjuncts are
//     resolved in the environment of the whole joined row, so an unqualified
//     name that is ambiguous across the joined tables is never pushed below
//     the join.
//   - range: on a table whose rows are in primary-key order (what append-only
//     ingest with automatic ids produces), "pk > / >= / < / <= value"
//     conjuncts become binary-searched position bounds. On such a table an
//     ORDER BY of exactly that key ascending needs no sort.
//   - scan: everything else.
//
// The walk reads the base rows in ascending position and carries each one
// depth-first through a SELECT's inner-join steps. A step probes the joined
// table's own hash index on its join column (index-join), or else buckets
// the joined table when the first row reaches it (hash-join); a predicate
// that does not relate the two sides falls back to the nested loop
// (loop-join). Filters are never pushed onto the joined side and joins are
// never reordered: result order without ORDER BY — base rows in ascending
// position, matches in ascending joined-row position — is part of the
// contract, and buckets list positions in that order. WHERE sees each
// joined row whole, and a row it keeps goes straight on: a SELECT's sink
// folds it or keeps what the answer needs of it, an UPDATE assigns into it,
// a DELETE notes its position; no join is materialized. Without a sort,
// aggregate, GROUP BY or DISTINCT, a SELECT's walk stops once OFFSET+LIMIT
// rows have survived — a keyset page costs O(log n + limit).
//
// An access path only ever removes rows the predicate would have removed:
// hash keys collapse numerics (see hashKey), every candidate pair of a join
// is verified with compareEq, and the full WHERE clause is applied to every
// surviving row. The one visible difference from a scan is error
// visibility: a row an index, range or LIMIT cut-off excludes is never shown
// to the rest of the WHERE clause, nor, past a LIMIT cut-off, to an ON
// clause, so a comparison that would have raised a type error only on
// excluded rows no longer fails the statement — an UPDATE or DELETE neither,
// which replays to the same rows. Errors are met in walk order: a joined
// row's ON comparison (only a loop-join's can fail) just before its WHERE.
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

// hashKey canonicalizes a value for bucket lookup. compareValues compares
// all numerics as floats, so numerics with one float reading share a key: an
// integral reading within ±2^53, where every integer is exact, is an int64
// key, and any other reading a float64 key. An int64 in that range, a
// non-integral float64 and a string are their own key, returned in the
// caller's box, so probing a bucket allocates nothing. Candidates are always
// re-checked against the real predicate, so the collapse can only cost a
// false candidate, never a wrong answer.
func hashKey(v any) any {
	switch x := v.(type) {
	case nil:
		return nullKey{}
	case int64:
		if -exactInts <= x && x <= exactInts {
			return v
		}
		return hashKey(float64(x))
	case float64:
		if x == math.Trunc(x) && math.Abs(x) <= exactInts {
			return int64(x)
		}
	case bool:
		if x {
			return int64(1)
		}
		return int64(0)
	}
	return v
}

const exactInts = 1 << 53

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
		ix.buckets = bucketRows(t.Rows, ix.col)
		ix.fresh = true
	}
	return ix.buckets
}

// bucketRows maps the hash key of each row's column col to the positions of
// the rows holding it, in ascending order.
func bucketRows(rows [][]any, col int) map[any][]int {
	buckets := make(map[any][]int, len(rows))
	for pos, row := range rows {
		k := hashKey(row[col])
		buckets[k] = append(buckets[k], pos)
	}
	return buckets
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
// order (the caller must still filter them through the full predicate), and
// the column and value probed.
// preds may come from a joined environment: t's columns are its first
// len(t.Columns) positions, so no index of t covers a joined table's column.
func (t *Table) eqCandidates(preds []colPred, args []any) (cand []int, col int, val any, ok bool) {
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
			return nil, 0, nil, false // surface the error through the scan path
		}
		cv, err := coerce(v, t.Columns[p.colIdx].Type)
		if err != nil {
			// Type-mismatched literal: the scan path decides whether that
			// is an error or simply matches nothing.
			return nil, 0, nil, false
		}
		return t.freshBuckets(ix)[hashKey(cv)], p.colIdx, cv, true
	}
	return nil, 0, nil, false
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
