package kdb

import (
	"bytes"
	"io"
	"strings"
	"sync"
)

// The typed read side. View hands a callback the live tables under one
// read lock: per table its schema, versions, rows and the encoder of its
// snapshot records, plus the commit LSN — one consistent cut of the
// database without serializing it. The columnar store copies rows into
// vectors from it, snapshot chunks are cut from it (AppendChunks) for the
// version-control layer and delta transfer, and WriteSnapshot writes the
// snapshot stream through the very same encoder, so there is one
// serializer of table records and one chunk cutter.
//
// Nothing reachable from a View may be used after the callback returns:
// UPDATE assigns into the row slices in place and INSERT appends into the
// backing array Rows shares, so a retained [][]any (or []any) races the
// next writer. Consumers copy what they keep — values into vectors, rows
// into bytes — before returning.

// View is a consistent read-only cut of a database; see DB.View.
type View struct{ db *DB }

// View runs fn under the database's read lock. fn must not call other DB
// methods (a writer queued behind the read lock would deadlock a nested
// read) and must not retain anything it obtained from v.
func (db *DB) View(fn func(v *View) error) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return fn(&View{db: db})
}

// LSN is the commit sequence number the view represents.
func (v *View) LSN() int64 { return v.db.lsn }

// Tables lists every table in snapshot order (sorted by lowercased name).
func (v *View) Tables() []TableView {
	names := v.db.tablesSorted()
	out := make([]TableView, len(names))
	for i, n := range names {
		out[i] = TableView{t: v.db.tables[n]}
	}
	return out
}

// Table looks one table up by (case-insensitive) name.
func (v *View) Table(name string) (TableView, bool) {
	t, ok := v.db.tables[strings.ToLower(name)]
	return TableView{t: t}, ok
}

// TableView is one table inside a View.
type TableView struct{ t *Table }

// Name is the table's name as written in its CREATE TABLE.
func (tv TableView) Name() string { return tv.t.Name }

// Columns are the table's column definitions (shared: copy to keep).
func (tv TableView) Columns() []ColumnDef { return tv.t.Columns }

// AutoID is the auto-increment high-water mark a snapshot's meta record
// carries for the table; 0 when it has none to record.
func (tv TableView) AutoID() int64 {
	if tv.t.pkIndex < 0 {
		return 0
	}
	return tv.t.autoID
}

// Version changes on every mutation of the table.
func (tv TableView) Version() int64 { return tv.t.version }

// Rewritten is the version of the table's last mutation that was not a
// plain append: creation, UPDATE, DELETE, any rollback, index DDL, or
// replacement by RestoreSnapshot. A consumer holding state derived at
// version v may extend it with the rows (records) past what it has seen
// exactly when Rewritten() <= v; otherwise everything it derived is void.
func (tv TableView) Rewritten() int64 { return tv.t.rewritten }

// Len is the table's row count.
func (tv TableView) Len() int { return len(tv.t.Rows) }

// Rows returns the rows from position from on, in insertion order. The
// slices alias live engine memory: read and copy, never keep or modify.
func (tv TableView) Rows(from int) [][]any { return tv.t.Rows[from:] }

// Records is the number of snapshot records the table serializes to: its
// CREATE TABLE, one CREATE INDEX per named index, and one INSERT per row.
func (tv TableView) Records() int { return tv.headerRecords() + len(tv.t.Rows) }

func (tv TableView) headerRecords() int {
	n := 1
	for _, ix := range tv.t.indexes {
		if ix.Name != "" { // the pk index is recreated automatically
			n++
		}
	}
	return n
}

// EncodeRecords writes records [from, to) of the table's snapshot
// serialization, each a newline-terminated log record: exactly the bytes
// a WriteSnapshot stream holds for the table at those positions. Record
// positions count from the table's CREATE TABLE, so a table that only
// grew by appends keeps every earlier record byte-identical.
func (tv TableView) EncodeRecords(w io.Writer, from, to int) error {
	t := tv.t
	var rec []byte
	write := func(sql string, args []any) (err error) {
		if rec, err = appendRecord(rec[:0], sql, args); err != nil {
			return err
		}
		rec = append(rec, '\n')
		_, err = w.Write(rec)
		return err
	}
	header := tv.headerRecords()
	if from < header {
		stmts := make([]string, 0, header)
		var b strings.Builder
		b.WriteString("CREATE TABLE " + t.Name + " (")
		for i, c := range t.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.Name + " " + c.Type.String())
			if c.PrimaryKey {
				b.WriteString(" PRIMARY KEY")
			}
		}
		b.WriteString(")")
		stmts = append(stmts, b.String())
		for _, ix := range t.indexes {
			if ix.Name != "" {
				stmts = append(stmts, "CREATE INDEX "+ix.Name+" ON "+t.Name+" ("+t.Columns[ix.col].Name+")")
			}
		}
		for i := from; i < header && i < to; i++ {
			if err := write(stmts[i], nil); err != nil {
				return err
			}
		}
		from = header
	}
	if from >= to {
		return nil
	}
	ins := "INSERT INTO " + t.Name + " VALUES ("
	for i := range t.Columns {
		if i > 0 {
			ins += ", "
		}
		ins += "?"
	}
	ins += ")"
	for _, row := range t.Rows[from-header : to-header] {
		if err := write(ins, row); err != nil {
			return err
		}
	}
	return nil
}

// AppendChunks cuts the table's snapshot records into content chunks, from
// chunk first on, and appends them to dst: chunk i is records
// [i·DefaultChunkLines, (i+1)·DefaultChunkLines) counted from the CREATE
// TABLE, the last one short. Each is encoded by EncodeRecords, hashed, and
// copied out of the view.
func (tv TableView) AppendChunks(dst []SnapshotChunk, first int) ([]SnapshotChunk, error) {
	buf := chunkScratch.Get().(*bytes.Buffer)
	defer chunkScratch.Put(buf)
	n := tv.Records()
	for from := first * DefaultChunkLines; from < n; from += DefaultChunkLines {
		to := min(from+DefaultChunkLines, n)
		buf.Reset()
		if err := tv.EncodeRecords(buf, from, to); err != nil {
			return dst, err
		}
		dst = append(dst, newChunk(tv.Name(), buf.Bytes()))
	}
	return dst, nil
}

// chunkScratch holds the buffers chunks are encoded into before their
// exact-size copy, so a commit that cuts the tails of a few tables grows
// one buffer, not one per table.
var chunkScratch = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// TableVersion reports one table's current mutation version; ok is false
// when the table does not exist. It is the cheap per-query freshness
// probe of an attached columnar store.
func (db *DB) TableVersion(name string) (version int64, ok bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return 0, false
	}
	return t.version, true
}
