package kdb

import (
	"hash/maphash"
	"strings"
)

// Footprints and changes: what a cached answer depends on, and what a
// committed record can change.
//
// A SELECT the row engine answers can report its footprint (Stmt.Footprint
// asks): the parts of the committed state its walk read, each one a Dep a
// committed record is checked against without running the statement again.
//
//   - Key(table, column, value): the rows an index-equality probe reached,
//     on the base table and in every index- or hash-join step.
//   - Row(table): the row a primary-key lookup found. No append can add a
//     second row under that key, so only a rewrite of the table changes it.
//   - Whole(table): every row — a scan, a primary-key range, a loop join,
//     and a primary-key lookup that found nothing (an append may take the
//     key).
//
// Every other source (system tables, trace tables, the columnar backend)
// reports none, and neither does a peer that predates the request field:
// no footprint means the answer depends on everything.
//
// ReplEvent.Change reads a committed log record as a Change: a plain append
// of rows with named column values, or a rewrite of its table — UPDATE,
// DELETE, DDL, an INSERT without a column list, anything unreadable (a
// rewrite of every table). Footprint.HitBy is the one rule joining the two:
// a Key is hit by a rewrite of its table or an appended row whose column
// holds the value under the index's key equality (hashKey: 1 = 1.0, and a
// column the INSERT omits is NULL; a text longer than 32 bytes compares by
// length and a 64-bit hash); a Row by a rewrite of its table; a Whole by
// any change to its table.

// DepKind says which part of a table a Dep covers.
type DepKind uint8

const (
	// DepKey is the rows whose Col holds Val.
	DepKey DepKind = iota
	// DepRow is rows found by primary key.
	DepRow
	// DepWhole is every row.
	DepWhole
)

// Dep is one entry of a footprint. Table and Col are lowercased.
type Dep struct {
	Kind  DepKind
	Table string
	Col   string // DepKey only
	Val   any    // DepKey only: an engine value
}

// Footprint is what one answer depends on. nil means unknown: everything.
type Footprint []Dep

// maxKeyDeps bounds the Key entries one statement records per table; a
// join probing more distinct values than that depends on the whole table.
const maxKeyDeps = 64

// footprintSet collects a SELECT's footprint while its walk runs, one entry
// per distinct dependency: a handful for a point read, so a list beats a
// map.
type footprintSet struct {
	deps []tableDep
}

// tableDep is a Dep on the table itself; key is the hash key of val.
type tableDep struct {
	kind DepKind
	t    *Table
	col  int
	key  any
	val  any
}

func (f *footprintSet) add(d tableDep) {
	keys := 0
	for _, e := range f.deps {
		if e.t != d.t {
			continue
		}
		if e.kind == DepWhole || (e.kind == d.kind && e.col == d.col && e.key == d.key) {
			return
		}
		if e.kind == DepKey {
			keys++
		}
	}
	if d.kind == DepWhole || keys == maxKeyDeps {
		// What the table's other entries cover, the whole table does.
		kept := f.deps[:0]
		for _, e := range f.deps {
			if e.t != d.t {
				kept = append(kept, e)
			}
		}
		f.deps, d = kept, tableDep{kind: DepWhole, t: d.t}
	}
	f.deps = append(f.deps, d)
}

// whole records that the answer depends on every row of t.
func (f *footprintSet) whole(t *Table) { f.add(tableDep{kind: DepWhole, t: t}) }

// probe records an equality probe of t's column col for v, whose candidate
// positions are cand. A probe of the primary key is a Row when some
// candidate holds the key, and the whole table otherwise.
func (f *footprintSet) probe(t *Table, col int, v any, cand []int) {
	if col != t.pkIndex {
		f.add(tableDep{kind: DepKey, t: t, col: col, key: hashKey(v), val: v})
		return
	}
	for _, pos := range cand {
		if eq, err := compareEq(t.Rows[pos][col], v); err == nil && eq {
			f.add(tableDep{kind: DepRow, t: t})
			return
		}
	}
	f.whole(t)
}

// result is the collected footprint, in the order its entries were met.
func (f *footprintSet) result() Footprint {
	out := make(Footprint, len(f.deps))
	for i, d := range f.deps {
		out[i] = Dep{Kind: d.kind, Table: strings.ToLower(d.t.Name)}
		if d.kind == DepKey {
			out[i].Col, out[i].Val = strings.ToLower(d.t.Columns[d.col].Name), d.val
		}
	}
	return out
}

// Change is what one committed record does, as far as a footprint can
// tell: an append to table, or (rewrite) anything else done to table — to
// every table when table is empty. An append keeps its rows' values for
// cols, row after row, as keys (keptKey), and its column names as the
// statement spells them: a feed holds thousands of Changes.
type Change struct {
	table   string
	rewrite bool
	cols    []string
	keys    []any
}

// everything is the change that hits every footprint.
var everything = Change{rewrite: true}

// longText is how a Change keeps a text longer than maxKeptText: its
// length and a hash. Two such texts that collide cost a false hit, never a
// missed one.
type longText struct {
	n int
	h uint64
}

const maxKeptText = 32

var textSeed = maphash.MakeSeed()

// keptKey is the key a value is compared under when appended: hashKey's,
// with a long text reduced to a longText.
func keptKey(v any) any {
	k := hashKey(v)
	if s, ok := k.(string); ok && len(s) > maxKeptText {
		return longText{len(s), maphash.String(textSeed, s)}
	}
	return k
}

// Change classifies the committed record the event carries — from a
// replication stream or DB.RecordsSince — as a Change.
func (ev *ReplEvent) Change() Change {
	if ev.sql != "" {
		return classifyStmt(ev.sql, ev.args)
	}
	var c cursor
	e, err := decodeRecord(&c, ev.Entry)
	if err != nil || e.Meta {
		return everything
	}
	return classifyStmt(e.SQL, e.Args)
}

func classifyStmt(sql string, args []any) Change {
	stmt, err := parseCached(sql)
	if err != nil {
		return everything
	}
	rewrite := func(table string) Change { return Change{table: strings.ToLower(table), rewrite: true} }
	switch s := stmt.(type) {
	case *insertStmt:
		if len(s.Columns) == 0 {
			return rewrite(s.Table)
		}
		ch := Change{table: strings.ToLower(s.Table), cols: s.Columns, keys: make([]any, 0, len(s.Rows)*len(s.Columns))}
		for _, exprs := range s.Rows {
			if len(exprs) != len(s.Columns) {
				return rewrite(s.Table)
			}
			for _, e := range exprs {
				v, err := evalValue(e, args)
				if err != nil {
					return rewrite(s.Table)
				}
				ch.keys = append(ch.keys, keptKey(v))
			}
		}
		return ch
	case *updateStmt:
		return rewrite(s.Table)
	case *deleteStmt:
		return rewrite(s.Table)
	case *createStmt:
		return rewrite(s.Table)
	case *dropStmt:
		return rewrite(s.Table)
	case *createIndexStmt:
		return rewrite(s.Table)
	}
	return everything // DROP INDEX names no table
}

// HitBy reports whether ch can change an answer whose footprint is fp. A
// nil footprint is hit by everything.
func (fp Footprint) HitBy(ch Change) bool {
	if fp == nil {
		return true
	}
	for _, d := range fp {
		if ch.table != "" && ch.table != d.Table {
			continue
		}
		switch {
		case ch.rewrite || d.Kind == DepWhole:
			return true
		case d.Kind == DepKey && ch.appends(d.Col, d.Val):
			return true
		}
	}
	return false
}

// appends reports whether one of the change's rows holds v in col under the
// index's key equality; a column the insert does not name is NULL.
func (ch *Change) appends(col string, v any) bool {
	want := keptKey(v)
	for i, c := range ch.cols {
		if strings.EqualFold(c, col) {
			for at := i; at < len(ch.keys); at += len(ch.cols) {
				if ch.keys[at] == want {
					return true
				}
			}
			return false
		}
	}
	return want == hashKey(nil) && len(ch.keys) > 0
}

// RecordsSince returns the committed records after LSN after, as a
// replication stream would deliver them — the in-process change feed. ok is
// false when the catch-up buffer no longer reaches back that far, where a
// stream would ask for a snapshot.
func (db *DB) RecordsSince(after int64) (recs []ReplEvent, ok bool) {
	buf, ok := db.entriesSince(after)
	recs = make([]ReplEvent, len(buf))
	for i, r := range buf {
		recs[i] = ReplEvent{LSN: r.lsn, Entry: r.raw}
	}
	return recs, ok
}

// Footprint returns what the answer depends on and the LSN it was read at,
// when the statement asked for them (Stmt.Footprint) and the row engine
// answered it; fp is nil otherwise.
func (r *Rows) Footprint() (fp Footprint, lsn int64) { return r.fp, r.lsn }

// wireDep is a Dep on the wire, in the "fp" list of a read answer: {"t":…}
// for Whole, {"t":…,"r":true} for Row, {"t":…,"c":…,"v":cell} for Key.
type wireDep struct {
	Table string  `json:"t"`
	Col   string  `json:"c,omitempty"`
	Val   *walArg `json:"v,omitempty"`
	Row   bool    `json:"r,omitempty"`
}

// appendFootprint appends fp as the "fp" list the structs marshal.
func appendFootprint(dst []byte, fp Footprint) ([]byte, error) {
	dst = append(dst, '[')
	for i, d := range fp {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(append(dst, `{"t":`...), d.Table)
		switch d.Kind {
		case DepRow:
			dst = append(dst, `,"r":true`...)
		case DepKey:
			dst = appendString(append(dst, `,"c":`...), d.Col)
			var err error
			if dst, err = appendArg(append(dst, `,"v":`...), d.Val); err != nil {
				return dst, err
			}
		}
		dst = append(dst, '}')
	}
	return append(dst, ']'), nil
}

// decodeFootprint turns a read answer's "fp" list back into a Footprint;
// nil for none, or for a list this client cannot read.
func decodeFootprint(in []wireDep) Footprint {
	if len(in) == 0 {
		return nil
	}
	fp := make(Footprint, len(in))
	for i, w := range in {
		switch {
		case w.Val != nil:
			v, err := decodeArg(*w.Val)
			if err != nil || w.Col == "" {
				return nil
			}
			fp[i] = Dep{Kind: DepKey, Table: w.Table, Col: w.Col, Val: v}
		case w.Row:
			fp[i] = Dep{Kind: DepRow, Table: w.Table}
		default:
			fp[i] = Dep{Kind: DepWhole, Table: w.Table}
		}
	}
	return fp
}

// footprint scans one "fp" list entry-by-entry into the structs' shape.
func (c *cursor) footprint() (deps []wireDep) {
	for !c.failed {
		var d wireDep
		c.must(`{"t":`)
		d.Table = c.str()
		if c.has(`,"c":`) {
			d.Col = c.str()
		}
		if c.has(`,"v":{"k":`) {
			d.Val = &walArg{Kind: c.str()}
			if c.has(`,"v":`) {
				d.Val.Value = c.str()
			}
			c.must(`}`)
		}
		if c.has(`,"r":true`) {
			d.Row = true
		}
		c.must(`}`)
		deps = append(deps, d)
		if c.has(`]`) {
			return deps
		}
		c.must(`,`)
	}
	return nil
}
