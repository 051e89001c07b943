package vcs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"repro/internal/kdb"
)

// Diffing. Two materialized states are compared table by table, rows
// keyed by the INTEGER PRIMARY KEY every knowledge table declares; for a
// keyless table rows are matched by whole-row identity (adds/deletes
// only). Modifies are reported cell-level, which is also the unit the
// three-way merge reasons about.

// ColChange is one changed cell.
type ColChange struct {
	Column string
	Old    any
	New    any
}

// RowChange is one row-level difference between two states.
type RowChange struct {
	Table string
	// Kind is "add", "delete", "modify", or "schema" (table added,
	// dropped, or its column set changed — reported once per table).
	Kind string
	// PK is the row's primary key (int64), or nil for keyless tables and
	// schema markers.
	PK any
	// Row is the added row's values (Kind "add") or the deleted row's
	// values (Kind "delete"), in column order.
	Row []any
	// Cols lists the changed cells for Kind "modify".
	Cols []ColChange
	// Columns names the table's columns, for rendering Row.
	Columns []string
}

// Diff compares two refs (branch names, commit hashes, or ""/"WORKING"
// for the live state) and returns the row changes that turn from into to,
// ordered by table, then deletes and modifies by primary key, then adds
// in insertion order. Only tables whose chunk lists differ are read.
func (r *Repo) Diff(from, to string) ([]RowChange, error) {
	ca, la, err := r.resolveLists(from)
	if err != nil {
		return nil, err
	}
	cb, lb, err := r.resolveLists(to)
	if err != nil {
		return nil, err
	}
	tables := changedTables(la, lb)
	a, err := r.resolveState(ca, tables)
	if err != nil {
		return nil, err
	}
	b, err := r.resolveState(cb, tables)
	if err != nil {
		return nil, err
	}
	return diffStates(a, b)
}

func diffStates(a, b map[string]*kdb.Table) ([]RowChange, error) {
	var out []RowChange
	for _, name := range sortedNames(a, b) {
		ta, tb := a[name], b[name]
		switch {
		case ta == nil:
			out = append(out, RowChange{Table: tb.Name, Kind: "schema"})
			out = append(out, wholeTable(tb, "add")...)
		case tb == nil:
			out = append(out, RowChange{Table: ta.Name, Kind: "schema"})
			out = append(out, wholeTable(ta, "delete")...)
		case !sameColumns(ta, tb):
			out = append(out, RowChange{Table: tb.Name, Kind: "schema"})
			out = append(out, wholeTable(ta, "delete")...)
			out = append(out, wholeTable(tb, "add")...)
		default:
			changes, err := diffTable(ta, tb)
			if err != nil {
				return nil, err
			}
			out = append(out, changes...)
		}
	}
	return out, nil
}

func columnNames(t *kdb.Table) []string {
	names := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		names[i] = c.Name
	}
	return names
}

func wholeTable(t *kdb.Table, kind string) []RowChange {
	cols := columnNames(t)
	pk := pkIndex(t)
	out := make([]RowChange, 0, len(t.Rows))
	for _, row := range t.Rows {
		rc := RowChange{Table: t.Name, Kind: kind, Row: row, Columns: cols}
		if pk >= 0 {
			rc.PK = row[pk]
		}
		out = append(out, rc)
	}
	return out
}

func sameColumns(a, b *kdb.Table) bool { return slices.Equal(a.Columns, b.Columns) }

func pkIndex(t *kdb.Table) int {
	for i, c := range t.Columns {
		if c.PrimaryKey {
			return i
		}
	}
	return -1
}

// rowsByPK indexes a table's rows by primary key, preserving order info.
func rowsByPK(t *kdb.Table, pk int) (map[int64][]any, []int64, error) {
	m := make(map[int64][]any, len(t.Rows))
	order := make([]int64, 0, len(t.Rows))
	for _, row := range t.Rows {
		id, ok := row[pk].(int64)
		if !ok {
			return nil, nil, fmt.Errorf("vcs: table %s has non-integer primary key %v", t.Name, row[pk])
		}
		m[id] = row
		order = append(order, id)
	}
	return m, order, nil
}

func diffTable(ta, tb *kdb.Table) ([]RowChange, error) {
	pk := pkIndex(ta)
	cols := columnNames(ta)
	if pk < 0 {
		return diffKeyless(ta, tb), nil
	}
	ra, _, err := rowsByPK(ta, pk)
	if err != nil {
		return nil, err
	}
	rb, orderB, err := rowsByPK(tb, pk)
	if err != nil {
		return nil, err
	}
	var deletes, modifies []RowChange
	delIDs := make([]int64, 0)
	for id := range ra {
		if _, ok := rb[id]; !ok {
			delIDs = append(delIDs, id)
		}
	}
	sort.Slice(delIDs, func(i, j int) bool { return delIDs[i] < delIDs[j] })
	for _, id := range delIDs {
		deletes = append(deletes, RowChange{Table: ta.Name, Kind: "delete", PK: id, Row: ra[id], Columns: cols})
	}
	modIDs := make([]int64, 0)
	for id, rowA := range ra {
		if rowB, ok := rb[id]; ok && !equalRow(rowA, rowB) {
			modIDs = append(modIDs, id)
		}
	}
	sort.Slice(modIDs, func(i, j int) bool { return modIDs[i] < modIDs[j] })
	for _, id := range modIDs {
		rowA, rowB := ra[id], rb[id]
		var cc []ColChange
		for i := range rowA {
			if !equalCell(rowA[i], rowB[i]) {
				cc = append(cc, ColChange{Column: ta.Columns[i].Name, Old: rowA[i], New: rowB[i]})
			}
		}
		modifies = append(modifies, RowChange{Table: ta.Name, Kind: "modify", PK: id, Cols: cc, Columns: cols})
	}
	var adds []RowChange
	for _, id := range orderB {
		if _, ok := ra[id]; !ok {
			adds = append(adds, RowChange{Table: ta.Name, Kind: "add", PK: id, Row: rb[id], Columns: cols})
		}
	}
	out := append(deletes, modifies...)
	return append(out, adds...), nil
}

// diffKeyless matches rows by whole-row identity: multiset delete/add.
func diffKeyless(ta, tb *kdb.Table) []RowChange {
	cols := columnNames(ta)
	counts := map[string]int{}
	for _, row := range ta.Rows {
		counts[kdb.EncodeKey(row)]++
	}
	var adds []RowChange
	for _, row := range tb.Rows {
		k := kdb.EncodeKey(row)
		if counts[k] > 0 {
			counts[k]--
			continue
		}
		adds = append(adds, RowChange{Table: ta.Name, Kind: "add", Row: row, Columns: cols})
	}
	var deletes []RowChange
	seen := map[string]int{}
	for _, row := range tb.Rows {
		seen[kdb.EncodeKey(row)]++
	}
	for _, row := range ta.Rows {
		k := kdb.EncodeKey(row)
		if seen[k] > 0 {
			seen[k]--
			continue
		}
		deletes = append(deletes, RowChange{Table: ta.Name, Kind: "delete", Row: row, Columns: cols})
	}
	return append(deletes, adds...)
}

// equalCell compares two engine values; NaN equals NaN so a float column
// holding NaN does not read as perpetually modified.
func equalCell(a, b any) bool {
	fa, aok := a.(float64)
	fb, bok := b.(float64)
	if aok && bok && math.IsNaN(fa) && math.IsNaN(fb) {
		return true
	}
	return a == b
}

func equalRow(a, b []any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !equalCell(a[i], b[i]) {
			return false
		}
	}
	return true
}

// FormatValue renders an engine value for display and for the __diff
// system table's TEXT columns.
func FormatValue(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return x
	default:
		return fmt.Sprint(x)
	}
}
