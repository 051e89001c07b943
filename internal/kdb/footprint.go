package kdb

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"slices"
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
//   - Upto(table, key column): the rows up to where OFFSET+LIMIT stopped a
//     join-free walk in key order (the range or scan path, ORDER BY the
//     INTEGER PRIMARY KEY ascending on a table stored in key order, or no
//     ORDER BY), when the stopping row's key is at most the table's
//     auto-increment high-water mark. An automatic key lands above that
//     mark (nextAutoID only moves up, and an undo stamps a rewrite), so no
//     append without an explicit key reaches the page.
//   - Whole(table): every row — a scan, a primary-key range, a loop join,
//     a short page, and a primary-key lookup that found nothing (an append
//     may take the key).
//
// Every other source (system tables, trace tables, the columnar backend)
// reports none, and neither does a peer that predates the request field:
// no footprint means the answer depends on everything.
//
// ReplEvent.Change reads a committed log record as a Change: a plain append
// of rows with named column values, or a rewrite of its table — UPDATE,
// DELETE, DDL, an INSERT without a column list, anything unreadable (a
// rewrite of every table). One rule joins the two: a Key is hit by a
// rewrite of its table or an appended row whose column holds the value
// under the index's key equality (hashKey: 1 = 1.0, and a column the
// INSERT omits is NULL; values compare by a 64-bit hash, keyMark); a Row by
// a rewrite of its table; an Upto by a rewrite of its table or an append
// whose column list names its key column (an explicit key, which may land
// anywhere); a Whole by any change to its table.
//
// A feed does not keep the changes it has seen but their Marks: for each
// thing a change can hit, the LSN of the last change that hit it.
// Footprint.HitSince asks the marks whether any change after a stamp hits a
// footprint, with one or two map lookups per entry; Footprint.HitBy is the
// same question about one change.

// DepKind says which part of a table a Dep covers.
type DepKind uint8

const (
	// DepKey is the rows whose Col holds Val.
	DepKey DepKind = iota
	// DepRow is rows found by primary key.
	DepRow
	// DepWhole is every row.
	DepWhole
	// DepUpto is the rows up to a page's last key, in key order; Col is the
	// INTEGER PRIMARY KEY.
	DepUpto
)

// Dep is one entry of a footprint. Table and Col are lowercased.
type Dep struct {
	Kind  DepKind
	Table string
	Col   string // DepKey and DepUpto
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
		switch d.kind {
		case DepKey:
			out[i].Col, out[i].Val = strings.ToLower(d.t.Columns[d.col].Name), d.val
		case DepUpto:
			out[i].Col = strings.ToLower(d.t.Columns[d.t.pkIndex].Name)
		}
	}
	return out
}

// Change is what one committed record does, as far as a footprint can
// tell: an append to table, or (rewrite) anything else done to table — to
// every table when table is empty. An append keeps its column names,
// lowercased, and for each of its cells the mark a Key on that column and
// value looks up (keyMark), row after row. A feed folds each Change into
// its Marks and keeps none.
type Change struct {
	table   string
	rewrite bool
	cols    []string
	keys    []uint64
}

// everything is the change that hits every footprint.
var everything = Change{rewrite: true}

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
		ch := Change{table: strings.ToLower(s.Table), cols: make([]string, len(s.Columns)), keys: make([]uint64, 0, len(s.Rows)*len(s.Columns))}
		for i, c := range s.Columns {
			ch.cols[i] = strings.ToLower(c)
		}
		for _, exprs := range s.Rows {
			if len(exprs) != len(ch.cols) {
				return rewrite(s.Table)
			}
			for i, e := range exprs {
				v, err := evalValue(e, args)
				if err != nil {
					return rewrite(s.Table)
				}
				ch.keys = append(ch.keys, keyMark(ch.table, ch.cols[i], v))
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

var markSeed = maphash.MakeSeed()

// keyMark is the 64 bits a Key dependency and an appended cell meet under:
// a hash of the table and column (lowercased) and of the value under the
// index's key equality (hashKey: 1 = 1.0, -0 = 0). Two keys that collide
// cost a false hit, never a missed one.
func keyMark(table, col string, v any) uint64 {
	var h maphash.Hash
	h.SetSeed(markSeed)
	h.WriteString(table)
	h.WriteByte(0)
	h.WriteString(col)
	h.WriteByte(0)
	var n [8]byte
	switch k := hashKey(v).(type) {
	case int64:
		binary.LittleEndian.PutUint64(n[:], uint64(k))
		h.WriteByte('i')
		h.Write(n[:])
	case float64:
		binary.LittleEndian.PutUint64(n[:], math.Float64bits(k))
		h.WriteByte('r')
		h.Write(n[:])
	case string:
		h.WriteByte('t')
		h.WriteString(k)
	case nullKey:
		h.WriteByte('n')
	default:
		h.WriteByte('?') // no other engine value: one shared mark, a false hit at worst
	}
	return h.Sum64()
}

// Marks summarises a run of committed changes as watermarks: for each
// dependency a change can hit, the LSN of the last change that hit it —
//
//   - the last change to every table (a rewrite of everything);
//   - per table, its last rewrite and its last change of any kind;
//   - per appended key (keyMark), its last append;
//   - per table, each distinct list of columns an append named, with its
//     last append (a column the list omits is NULL).
//
// A footprint so asks one or two map lookups per entry (HitSince), however
// old its stamp. The marks cover every change after Base up to Top, in two
// generations of up to marksGeneration changes: when the newer one is full
// the older is dropped, and Base moves up to where the newer began. The
// horizon is so one to two generations back, and what is kept is bounded
// by the distinct keys two generations appended.
type Marks struct {
	base, mid, top int64 // old covers (base, mid], cur (mid, top]
	old, cur       *marks
	n              int // changes in cur
	size           int // changes per generation
}

const marksGeneration = 4096

// marks is one generation's watermarks.
type marks struct {
	all    int64
	tables map[string]*tableMarks
	keys   map[uint64]int64
}

// tableMarks is one table's watermarks; lists holds each distinct list of
// appended columns by its names joined.
type tableMarks struct {
	rewrite, any int64
	lists        map[string]colList
}

type colList struct {
	cols []string
	lsn  int64
}

// NewMarks returns marks that cover nothing yet: every change after lsn
// is still to come.
func NewMarks(lsn int64) *Marks {
	m := &Marks{size: marksGeneration}
	m.Reset(lsn)
	return m
}

// Reset forgets every change: the marks cover nothing after lsn.
func (m *Marks) Reset(lsn int64) {
	m.base, m.mid, m.top = lsn, lsn, lsn
	m.old, m.cur, m.n = newMarks(), newMarks(), 0
}

func newMarks() *marks {
	return &marks{tables: map[string]*tableMarks{}, keys: map[uint64]int64{}}
}

// Base and Top bound what the marks cover: every change after Base, up to
// and including Top.
func (m *Marks) Base() int64 { return m.base }
func (m *Marks) Top() int64  { return m.top }

// Apply notes the change committed at lsn. A change that is not the next
// one leaves nothing known of those in between: the marks restart after
// it.
func (m *Marks) Apply(lsn int64, ch Change) {
	if lsn != m.top+1 {
		m.Reset(lsn)
		return
	}
	if m.n == m.size {
		m.old, m.cur, m.n = m.cur, newMarks(), 0
		m.base, m.mid = m.mid, m.top
	}
	m.cur.apply(lsn, ch)
	m.n++
	m.top = lsn
}

func (g *marks) apply(lsn int64, ch Change) {
	if ch.table == "" {
		g.all = lsn
		return
	}
	t := g.tables[ch.table]
	if t == nil {
		t = &tableMarks{lists: map[string]colList{}}
		g.tables[ch.table] = t
	}
	t.any = lsn
	if ch.rewrite {
		t.rewrite = lsn
		return
	}
	if len(ch.keys) == 0 {
		return
	}
	t.lists[strings.Join(ch.cols, "\x00")] = colList{ch.cols, lsn}
	for _, k := range ch.keys {
		g.keys[k] = lsn
	}
}

// HitSince reports whether a change the marks cover after LSN from can
// change an answer whose footprint is fp, by Footprint.HitBy's rule. A nil
// footprint is hit by everything, and a stamp before Base, which the marks
// cannot tell about, counts as hit.
func (fp Footprint) HitSince(m *Marks, from int64) bool {
	switch {
	case from < m.base:
		return true
	case from >= m.top:
		return false
	case fp == nil:
		return true
	}
	return m.cur.hit(fp, from) || (from < m.mid && m.old.hit(fp, from))
}

func (g *marks) hit(fp Footprint, from int64) bool {
	for _, d := range fp {
		if g.all > from {
			return true
		}
		t := g.tables[d.Table]
		if t == nil || t.any <= from {
			continue
		}
		switch d.Kind {
		case DepWhole:
			return true
		case DepRow:
			if t.rewrite > from {
				return true
			}
		case DepUpto:
			if t.rewrite > from || t.names(d.Col, from) {
				return true
			}
		case DepKey:
			if t.rewrite > from || g.keys[keyMark(d.Table, d.Col, d.Val)] > from || (d.Val == nil && t.omits(d.Col, from)) {
				return true
			}
		}
	}
	return false
}

// omits reports whether an append after from named a list of columns
// without col; names, whether one named a list with it.
func (t *tableMarks) omits(col string, from int64) bool { return t.listed(col, from, false) }
func (t *tableMarks) names(col string, from int64) bool { return t.listed(col, from, true) }

func (t *tableMarks) listed(col string, from int64, with bool) bool {
	for _, l := range t.lists {
		if l.lsn > from && slices.Contains(l.cols, col) == with {
			return true
		}
	}
	return false
}

// HitBy reports whether ch can change an answer whose footprint is fp: a
// Key is hit by a rewrite of its table or an appended row whose column
// holds the value (a column the append omits is NULL), a Row by a rewrite
// of its table, an Upto by a rewrite of its table or an append naming its
// key column, a Whole by any change to its table. It is the one-change
// case of HitSince. A nil footprint is hit by everything.
func (fp Footprint) HitBy(ch Change) bool {
	m := NewMarks(0)
	m.Apply(1, ch)
	return fp.HitSince(m, 0)
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
// for Whole, {"t":…,"r":true} for Row, {"t":…,"c":…,"v":cell} for Key,
// {"t":…,"c":…,"u":true} for Upto. A client that predates Upto declines the
// entry in its scanner and its structs read it as Whole: never a missed hit.
type wireDep struct {
	Table string  `json:"t"`
	Col   string  `json:"c,omitempty"`
	Val   *walArg `json:"v,omitempty"`
	Row   bool    `json:"r,omitempty"`
	Upto  bool    `json:"u,omitempty"`
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
		case DepUpto:
			dst = append(appendString(append(dst, `,"c":`...), d.Col), `,"u":true`...)
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
		case w.Upto && w.Col != "":
			fp[i] = Dep{Kind: DepUpto, Table: w.Table, Col: w.Col}
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
		if c.has(`,"u":true`) {
			d.Upto = true
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
