package kdb

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
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
	// Raw is the record's exact log line (no trailing newline); replayed
	// mutations keep it so the replication buffer can re-ship the very
	// bytes that are on disk.
	Raw []byte
}

// decodeRecord decodes one log record, the one reader of the record format
// for log replay, snapshot restore and follower apply. A mutation record in
// the shape the engine writes is scanned straight into engine values; every
// other line — a meta record, a hand-edited or padded one, a corrupt one —
// goes to encoding/json. The caller says where a failure happened, and
// fills in the entry's Raw if it keeps one.
func decodeRecord(line []byte) (replayEntry, error) {
	if sql, args, ok := scanRecord(line, true); ok {
		return replayEntry{SQL: sql, Args: args}, nil
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

// parseWALRecords decodes newline-delimited log records, skipping blank
// lines. It is shared by log replay and snapshot restore, so both paths
// accept exactly the bytes the engine writes.
func parseWALRecords(src string, data []byte) ([]replayEntry, error) {
	entries := make([]replayEntry, 0, bytes.Count(data, []byte{'\n'})+1)
	for len(data) > 0 {
		var line []byte
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			line, data = data[:nl], data[nl+1:]
		} else {
			line, data = data, nil
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		e, err := decodeRecord(line)
		if err != nil {
			return nil, fmt.Errorf("kdb: corrupt log %s: %w", src, err)
		}
		e.Raw = append([]byte(nil), line...)
		entries = append(entries, e)
	}
	return entries, nil
}

// replay applies decoded log records, in order, to a database nobody else
// can reach yet — one being opened, or a scratch one a snapshot is restored
// into — so it takes no lock and ticks no statement metric. It is the only
// reader of a log's history: every mutation record is one commit (the next
// LSN, retained for replication catch-up), and a meta record restores the
// auto-increment high-water marks, so deleted-then-compacted primary keys
// are not reused, and repositions the LSN. The records before an explicitly
// tagged meta record are snapshot rows, one INSERT per row however many
// commits wrote them: the LSN becomes the record's base_lsn, even 0, and
// the catch-up buffer is emptied, because those records are not history a
// follower may be sent. An untagged meta record (logs older than the tag)
// can only move the LSN up. what names the stream in errors.
func (db *DB) replay(what string, entries []replayEntry) error {
	for i, e := range entries {
		if !e.Meta {
			if _, _, err := db.applyLocked(e.SQL, e.Args); err != nil {
				return fmt.Errorf("kdb: %s entry %d (%q): %w", what, i, e.SQL, err)
			}
			db.noteCommit(e.Raw)
			continue
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
			db.replBuf = nil
		}
	}
	return nil
}

// replaySnapshot replays a snapshot stream into a scratch database, built
// off to the side so a malformed stream leaves nothing half-applied.
func replaySnapshot(data []byte) (*DB, error) {
	entries, err := parseWALRecords("snapshot", data)
	if err != nil {
		return nil, err
	}
	scratch := &DB{tables: map[string]*Table{}}
	return scratch, scratch.replay("snapshot", entries)
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

// wal is the append-only mutation log.
type wal struct {
	f *os.File
	w *bufio.Writer
}

// openWAL opens or creates the log and returns the decoded entries for
// replay.
func openWAL(path string) (*wal, []replayEntry, error) {
	var entries []replayEntry
	if data, err := os.ReadFile(path); err == nil {
		entries, err = parseWALRecords(path, data)
		if err != nil {
			return nil, nil, err
		}
	} else if !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("kdb: open log: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("kdb: open log for append: %w", err)
	}
	return &wal{f: f, w: bufio.NewWriter(f)}, entries, nil
}

// AppendRaw writes pre-encoded log records (one or many) and flushes them
// to the OS in a single pass — the batch ingestion fast path: N mutations
// cost one write+flush instead of N.
func (w *wal) AppendRaw(data []byte) error {
	if _, err := w.w.Write(data); err != nil {
		return err
	}
	if err := w.w.Flush(); err != nil {
		return err
	}
	metWALFlushes.Inc()
	metWALBytes.Add(int64(len(data)))
	return nil
}

// Close flushes and closes the log file.
func (w *wal) Close() error {
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// Compact rewrites the database file as a minimal snapshot: CREATE TABLE
// and CREATE INDEX statements, one INSERT per row, and a meta entry
// preserving auto-increment high-water marks. It is the paper-ablation
// alternative to the ever-growing append log and also the mechanism for
// exporting a database to a fresh file.
//
// Compact is crash-safe: the snapshot is written to a temp file, synced,
// and atomically renamed over the log, so a crash at any point leaves
// either the old log or the complete new snapshot (plus at worst a stale
// .compact temp file, which reopening ignores). Every error path removes
// the temp file, and the live log handle is only swapped after the rename
// has succeeded.
func (db *DB) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.path == "" {
		return fmt.Errorf("kdb: in-memory database has no file to compact")
	}
	_, err := db.replaceLogLocked(db.snapshotLocked)
	return err
}

// replaceLogLocked atomically replaces the log file with what write
// produces and points the append handle at the new file: write goes to a
// temp file that is flushed, synced, closed and renamed over the log. Until
// the rename succeeds the old log and its handle stay fully valid and the
// temp file is removed on every error path, so replaced=false means nothing
// changed. After it, a failure to reopen for append leaves a complete,
// consistent file that further mutations cannot be logged to: walErr is set
// and commitLocked refuses writes until the database is reopened. db.mu
// must be held for writing and db.path set.
func (db *DB) replaceLogLocked(write func(w *bufio.Writer) error) (replaced bool, err error) {
	tmp := db.path + ".compact"
	f, err := os.Create(tmp)
	if err != nil {
		return false, err
	}
	w := bufio.NewWriter(f)
	err = write(w)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, db.path)
	}
	if err != nil {
		os.Remove(tmp)
		return false, err
	}
	if db.wal != nil {
		db.wal.Close() // old handle points at the unlinked file; best effort
	}
	nf, err := os.OpenFile(db.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		db.wal, db.walErr = nil, err
		return true, err
	}
	db.wal, db.walErr = &wal{f: nf, w: bufio.NewWriter(nf)}, nil
	return true, nil
}

// snapshotLocked serializes the database as a minimal, deterministic
// sequence of log records: CREATE TABLE and CREATE INDEX statements, one
// INSERT per row, and a final meta record carrying the auto-increment
// high-water marks plus the commit LSN the snapshot represents. Table
// records come from TableView.EncodeRecords, the one table serializer;
// this stream is what Compact, replication snapshot transfer and the
// byte-identical convergence checks use. db.mu must be held (read or
// write).
func (db *DB) snapshotLocked(w *bufio.Writer) error {
	for _, name := range db.tablesSorted() {
		tv := TableView{t: db.tables[name]}
		if err := tv.EncodeRecords(w, 0, tv.Records()); err != nil {
			return err
		}
	}
	meta, err := db.snapshotMetaLocked()
	if err != nil {
		return err
	}
	_, err = w.Write(meta)
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
	return EncodeSnapshotMeta(autoIDs, db.lsn)
}

// WriteSnapshot streams a consistent snapshot of the database to w and
// returns the commit LSN it represents. Two databases are replicas of one
// another exactly when their snapshots are byte-identical.
func (db *DB) WriteSnapshot(w io.Writer) (int64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	bw := bufio.NewWriter(w)
	if err := db.snapshotLocked(bw); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return db.lsn, nil
}
