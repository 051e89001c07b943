package kdb

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// walEntry is one logged mutation: the SQL text plus its arguments with
// explicit type tags (JSON alone cannot distinguish int64 from float64).
// A compaction snapshot additionally writes one meta entry carrying the
// auto-increment high-water marks, so primary keys whose max row was
// deleted are not reused after reopen, and the commit LSN the snapshot
// represents, so replication offsets survive compaction and restarts.
type walEntry struct {
	SQL     string           `json:"sql,omitempty"`
	Args    []walArg         `json:"args,omitempty"`
	AutoIDs map[string]int64 `json:"auto_ids,omitempty"`
	BaseLSN int64            `json:"base_lsn,omitempty"`
	// Meta explicitly tags a snapshot meta record. Older logs carried no
	// tag and relied on AutoIDs/BaseLSN being non-zero, which misclassified
	// a zero-LSN snapshot with no high-water marks as a replayable
	// mutation; isMeta keeps the legacy inference only for reading those
	// old files.
	Meta bool `json:"meta,omitempty"`
}

// isMeta reports whether the entry is a snapshot meta record rather than a
// replayable mutation. The explicit tag is authoritative; the field
// inference remains for logs written before the tag existed.
func (e *walEntry) isMeta() bool { return e.Meta || len(e.AutoIDs) > 0 || e.BaseLSN > 0 }

type walArg struct {
	Kind  string `json:"k"` // "i", "r", "t", "n"
	Value string `json:"v,omitempty"`
}

func decodeArgs(in []walArg) ([]any, error) {
	out := make([]any, len(in))
	for i, a := range in {
		v, err := decodeArg(a)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func decodeArg(a walArg) (any, error) {
	switch a.Kind {
	case "n":
		return nil, nil
	case "i":
		v, err := strconv.ParseInt(a.Value, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("kdb: corrupt log integer %q", a.Value)
		}
		return v, nil
	case "r":
		v, err := strconv.ParseFloat(a.Value, 64)
		if err != nil {
			return nil, fmt.Errorf("kdb: corrupt log real %q", a.Value)
		}
		return v, nil
	case "t":
		return a.Value, nil
	}
	return nil, fmt.Errorf("kdb: corrupt log argument kind %q", a.Kind)
}

type replayEntry struct {
	SQL     string
	Args    []any
	AutoIDs map[string]int64
	BaseLSN int64
	Meta    bool
	// Tagged is set when a meta record carries the explicit tag rather
	// than being inferred from its fields (see walEntry.isMeta).
	Tagged bool
	// Scanned is set when the scanner read the record (replRecord.scanned).
	Scanned bool
	// Raw is the record's exact log line (no trailing newline), in the block
	// of its batch (readRecords); replayed mutations keep it so the
	// replication buffer can re-ship the very bytes that are on disk.
	Raw []byte
}

// decodeRecord decodes one log record, the one reader of the record format
// for log replay, snapshot restore and follower apply. A mutation record in
// the shape the engine writes is scanned straight into engine values; every
// other line — a meta record, a hand-edited or padded one, a corrupt one —
// goes to encoding/json. c is the cursor to scan with: what it carries from
// one record to the next (cursor.texts, cursor.cells) it keeps for the
// next call. The caller says where a failure happened, and fills in the
// entry's Raw if it keeps one.
func decodeRecord(c *cursor, line []byte) (replayEntry, error) {
	c.reset(line)
	if sql, args := c.record(); c.ok() {
		return replayEntry{SQL: sql, Args: args, Scanned: true}, nil
	}
	var e walEntry
	if err := json.Unmarshal(line, &e); err != nil {
		return replayEntry{}, err
	}
	args, err := decodeArgs(e.Args)
	if err != nil {
		return replayEntry{}, err
	}
	return replayEntry{SQL: e.SQL, Args: args, AutoIDs: e.AutoIDs, BaseLSN: e.BaseLSN, Meta: e.isMeta(), Tagged: e.Meta}, nil
}

const (
	// recordBatchLen is how many records the decoder hands the applier at a
	// time: enough that a channel operation per batch is noise, few enough
	// that the two sides overlap from the first batch on.
	recordBatchLen = 512
	// recordBatchesAhead is how many decoded batches may wait for the
	// applier: the decoder works on the next while one waits and one is
	// applied, and a slow applier holds no more than that.
	recordBatchesAhead = 2
)

// recordBatch is the next run of a stream's records, in file order. err,
// when set, is why the record after them could not be read, and ends the
// stream.
type recordBatch struct {
	recs []replayEntry
	err  error
}

// readRecords is the one reader of a log or snapshot stream: log replay,
// snapshot restore and the vcs layer's chunk decoding all go through it. A
// goroutine cuts r into lines (blank lines skipped, the last one's newline
// optional) and decodes them a batch at a time, while each runs on the
// caller's goroutine over the records of the batches already decoded, in
// file order, with each record's index among them. Each batch copies its
// lines into one block it owns, and every record's Raw points there, so the
// few records the catch-up buffer keeps pin only their batches' blocks.
//
// The first failure ends the stream, and readRecords returns it: an error
// from each, or a record that cannot be read, once each has had every
// record before it — so the error names the first failing record in file
// order, whichever way it failed. src names the stream in read errors.
// Before returning, readRecords stops the decoder and waits for it.
func readRecords(src string, r io.Reader, each func(i int, e *replayEntry) error) error {
	batches := make(chan recordBatch, recordBatchesAhead)
	stop := make(chan struct{})
	go decodeRecords(src, r, batches, stop)
	defer func() {
		close(stop)
		for range batches { // the decoder closes it as it returns
		}
	}()
	i := 0
	for b := range batches {
		for j := range b.recs {
			if err := each(i, &b.recs[j]); err != nil {
				return err
			}
			i++
		}
		if b.err != nil {
			return b.err
		}
	}
	return nil
}

// decodeRecords is readRecords' decoder: it sends the records of r in
// batches on out until the stream ends, fails, or stop is closed, and then
// closes out.
func decodeRecords(src string, r io.Reader, out chan<- recordBatch, stop <-chan struct{}) {
	defer close(out)
	lines := lineReader{br: bufio.NewReaderSize(r, 64<<10)}
	c := newStreamCursor()
	var block []byte
	ends := make([]int, 0, recordBatchLen)
	n := 0 // records read before this batch
	for {
		b := recordBatch{recs: make([]replayEntry, 0, recordBatchLen)}
		// The last batch's size, with room to spare, is the best guess at
		// this one's.
		block, ends = make([]byte, 0, len(block)+len(block)/4), ends[:0]
		end := false
		for len(b.recs) < recordBatchLen {
			line, err := lines.next()
			if err != nil {
				if err != io.EOF {
					b.err = fmt.Errorf("kdb: read log %s: %w", src, err)
				}
				end = true
				break
			}
			e, err := decodeRecord(&c, line)
			if err != nil {
				b.err, end = fmt.Errorf("kdb: corrupt log %s entry %d: %w", src, n+len(b.recs), err), true
				break
			}
			block = append(block, line...)
			ends = append(ends, len(block))
			b.recs = append(b.recs, e)
		}
		start := 0
		for j, off := range ends {
			b.recs[j].Raw = block[start:off:off]
			start = off
		}
		n += len(b.recs)
		select {
		case out <- b:
		case <-stop:
			return
		}
		if end {
			return
		}
	}
}

// replayFrom replays the log or snapshot stream r (readRecords; src names
// it in read errors) into a database nobody else can reach yet — one being
// opened, or a scratch one a snapshot is restored into — so it takes no lock
// and ticks no statement metric. It is the only reader of a log's history.
// what names the stream in apply errors.
func (db *DB) replayFrom(what, src string, r io.Reader) error {
	return readRecords(src, r, func(i int, e *replayEntry) error { return db.replayRecord(what, i, e) })
}

// replayRecord applies the i-th record of a replayed stream. Every mutation
// record is one commit (the next LSN, retained for replication catch-up),
// and a meta record restores the auto-increment high-water marks, so
// deleted-then-compacted primary keys are not reused, and repositions the
// LSN. The records before an explicitly tagged meta record are snapshot
// rows, one INSERT per row however many commits wrote them: the LSN becomes
// the record's base_lsn, even 0, and the catch-up buffer is emptied, because
// those records are not history a follower may be sent. An untagged meta
// record (logs older than the tag) can only move the LSN up.
func (db *DB) replayRecord(what string, i int, e *replayEntry) error {
	if !e.Meta {
		if _, _, err := db.applyLocked(e.SQL, e.Args, false); err != nil && err != errUnchanged {
			return fmt.Errorf("kdb: %s entry %d (%q): %w", what, i, e.SQL, err)
		}
		db.noteCommit(e.Raw, e.Scanned)
		return nil
	}
	if e.BaseLSN < 0 {
		return fmt.Errorf("kdb: %s entry %d: negative base_lsn %d", what, i, e.BaseLSN)
	}
	for name, id := range e.AutoIDs {
		if t, ok := db.tables[strings.ToLower(name)]; ok && id > t.autoID {
			t.autoID = id
		}
	}
	if e.Tagged || e.BaseLSN > db.lsn {
		db.lsn = e.BaseLSN
		db.replBuf, db.replBytes = nil, 0
	}
	return nil
}

// replaySnapshot replays a snapshot stream into a scratch database, built
// off to the side so a malformed stream leaves nothing half-applied.
func replaySnapshot(data []byte) (*DB, error) {
	scratch := &DB{tables: map[string]*Table{}}
	return scratch, scratch.replayFrom("snapshot", "snapshot", bytes.NewReader(data))
}

// ParseSnapshotTables replays a snapshot stream into a detached table
// set — how the version-control layer reads a stored commit's chunks back
// into tables. Keys are lowercased table names; the returned tables are
// private copies and safe to read without locking.
func ParseSnapshotTables(data []byte) (map[string]*Table, error) {
	scratch, err := replaySnapshot(data)
	if err != nil {
		return nil, err
	}
	return scratch.tables, nil
}

// walFile is what the log is written through: the append handle Open
// opens, and the temp file a rewrite of the log (Compact, RestoreSnapshot,
// the online checkpoint) writes before renaming it over the log. *os.File
// is one; tests put kdbtest.FaultFile in its place to short-write, fail or
// "kill" at a chosen byte.
type walFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// interpose is the seam every log file passes through before kdb writes
// to it. It is the file itself; only tests replace it.
var interpose = func(f *os.File) walFile { return f }

// appendLocked writes the write step's records to the log: db.step is
// already one contiguous buffer, so N mutations cost one Write. A Write that
// fails may have left part of the step in the file, so the file is cut back
// to db.logSize, the end of the last whole step, and the next commit (the
// handle is opened O_APPEND) appends after whole records. If that cut fails
// too, the handle is closed and walErr set: commitLocked refuses writes
// until the database is reopened. db.mu must be held for writing.
func (db *DB) appendLocked() error {
	if _, err := db.wal.Write(db.step); err != nil {
		if terr := db.wal.Truncate(db.logSize); terr != nil {
			db.wal.Close()
			db.wal, db.walErr = nil, terr
		}
		return fmt.Errorf("kdb: write log: %w", err)
	}
	metWALFlushes.Inc()
	metWALBytes.Add(int64(len(db.step)))
	return nil
}

// Compact rewrites the log as a checkpoint image of the database and its
// meta record (writeImage, the online checkpoint's writer), with nothing
// after them, while holding the write lock — the paper-ablation alternative
// to the ever-growing append log. WriteSnapshot is the text export form.
//
// Compact is crash-safe: the image is written to a temp file, synced, and
// atomically renamed over the log, and the directory is synced, so a crash
// at any point leaves either the old log or the complete new one (plus at
// worst a stale .compact temp file, which the next Open removes). Every
// error path removes the temp file, and the live log handle is only swapped
// after the rename has succeeded. A checkpoint in progress finishes first:
// the two share the temp file.
func (db *DB) Compact() error {
	db.rewriteMu.Lock()
	defer db.rewriteMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.path == "" {
		return fmt.Errorf("kdb: in-memory database has no file to compact")
	}
	_, err := db.rewriteLocked(db)
	return err
}

// rewriteLocked replaces the log with a checkpoint image of src and its
// meta record: written to a temp file (writeImage), flushed, synced and
// closed, then installed (installLocked). src is db itself (Compact) or a
// scratch database nobody else reaches (RestoreSnapshot), so each block is
// encoded at once. Until the rename the old log and its handle stay valid
// and the temp file is removed on every error path, so replaced=false means
// nothing changed. db.mu must be held for writing, db.rewriteMu held, and
// db.path set.
func (db *DB) rewriteLocked(src *DB) (replaced bool, err error) {
	tables, meta, err := src.cutLocked()
	if err != nil {
		return false, err
	}
	tmp := db.path + tempSuffix
	f, err := createTemp(tmp)
	if err != nil {
		return false, err
	}
	w := bufio.NewWriter(f)
	image, err := writeImage(w, tables, meta, func(ct *cutTable, encode func(t *Table) error) error { return encode(ct.t) })
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return false, err
	}
	return db.installLocked(tmp, image+int64(len(meta)), image)
}

// tempSuffix names the temp file a rewrite of the log at path writes:
// path+tempSuffix, renamed over path once whole. Open removes one a crash
// left behind.
const tempSuffix = ".compact"

// createTemp creates (or truncates) a rewrite's temp file.
func createTemp(name string) (walFile, error) {
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	return interpose(f), nil
}

// installLocked renames the whole, synced temp file tmp over the log,
// syncs the directory so the rename survives a crash, and points the append
// handle at the new log: size bytes long, of which the first image are a
// checkpoint image (0 for none). A failed rename removes tmp and changes
// nothing (replaced=false). After the rename, a failure to reopen for
// append leaves a complete, consistent file that further mutations cannot
// be logged to: walErr is set and commitLocked refuses writes until the
// database is reopened. db.mu must be held for writing.
func (db *DB) installLocked(tmp string, size, image int64) (replaced bool, err error) {
	if err := os.Rename(tmp, db.path); err != nil {
		os.Remove(tmp)
		return false, err
	}
	db.logGen++
	db.logSize, db.imageSize = size, image
	metWALSinceCheckpoint.Set(float64(size - image))
	if db.wal != nil {
		db.wal.Close() // old handle points at the unlinked file; best effort
	}
	nf, err := os.OpenFile(db.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		db.wal, db.walErr = nil, err
		return true, err
	}
	db.wal, db.walErr = interpose(nf), nil
	return true, syncDir(db.path)
}

// syncDir syncs the directory holding path, making a rename in it durable.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// snapshotMetaLocked encodes a snapshot's trailing meta record: every
// table's auto-increment high-water mark and the commit LSN. It is written
// unconditionally and tagged explicitly: a snapshot taken at LSN 0 with no
// high-water marks must still restore as "no history", not replay as a
// mutation. db.mu must be held (read or write).
func (db *DB) snapshotMetaLocked() ([]byte, error) {
	autoIDs := map[string]int64{}
	for _, t := range db.tables {
		if id := (TableView{t: t}).AutoID(); id > 0 {
			autoIDs[t.Name] = id
		}
	}
	// Map keys marshal sorted, so the encoding is deterministic.
	data, err := json.Marshal(walEntry{AutoIDs: autoIDs, BaseLSN: db.lsn, Meta: true})
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteSnapshot streams a consistent snapshot of the database to w and
// returns the commit LSN it represents: a minimal, deterministic sequence of
// log records — CREATE TABLE and CREATE INDEX statements, one INSERT per row
// (TableView.EncodeRecords, the one table serializer), and the meta record
// (snapshotMetaLocked). It is the text export form, what the snapshot verb
// ships and RestoreSnapshot reads. Two databases are replicas of one another
// exactly when their snapshots are byte-identical.
func (db *DB) WriteSnapshot(w io.Writer) (int64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	bw := bufio.NewWriter(w)
	for _, name := range db.tablesSorted() {
		tv := TableView{t: db.tables[name]}
		if err := tv.EncodeRecords(bw, 0, tv.Records()); err != nil {
			return 0, err
		}
	}
	meta, err := db.snapshotMetaLocked()
	if err == nil {
		_, err = bw.Write(meta)
	}
	if err == nil {
		err = bw.Flush()
	}
	return db.lsn, err
}
