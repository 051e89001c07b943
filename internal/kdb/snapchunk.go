package kdb

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
)

// Snapshot chunking. A WriteSnapshot stream is a deterministic sequence of
// log records: per table (sorted), one CREATE TABLE, its CREATE INDEX
// statements, one INSERT per row, and a trailing meta record. Chunking
// splits that byte stream into content-addressed segments that reset at
// every table boundary, so two snapshots that differ in one table still
// share every other table's chunks. Chunks are the storage unit of the
// vcs commit graph and the transfer unit of delta replication: a follower
// (or a new commit) only needs the segments it does not already hold. They
// are cut from the live tables (TableView.AppendChunks), never by
// re-reading the stream.

// DefaultChunkLines is the number of log records per content chunk. The
// first chunk of a table also carries its CREATE TABLE / CREATE INDEX
// records; boundaries are counted from the start of each table, so
// appending rows to a table leaves its earlier chunks byte-identical.
const DefaultChunkLines = 512

// SnapshotChunk is one content-addressed segment of a snapshot stream.
type SnapshotChunk struct {
	// Table is the (as-written) name of the table the segment belongs to;
	// empty for the meta record chunk.
	Table string
	// Meta marks the chunk holding the snapshot's trailing meta record
	// (auto-increment high-water marks and base LSN).
	Meta bool
	// Hash is the lowercase hex SHA-256 of Data.
	Hash string
	// Data is the exact byte range of the stream: whole newline-terminated
	// log records.
	Data []byte
}

// newChunk hashes data and keeps a copy of it as a table's chunk.
func newChunk(table string, data []byte) SnapshotChunk {
	sum := sha256.Sum256(data)
	return SnapshotChunk{Table: table, Hash: hex.EncodeToString(sum[:]), Data: append([]byte(nil), data...)}
}

// SnapshotChunks cuts the database's snapshot into its content-addressed
// chunks from one View: every table's chunks in snapshot order, then the
// meta record as a chunk of its own, and the LSN they represent.
// Concatenating the chunks' Data reproduces WriteSnapshot's stream byte for
// byte.
func (db *DB) SnapshotChunks() (chunks []SnapshotChunk, lsn int64, err error) {
	err = db.View(func(v *View) error {
		for _, tv := range v.Tables() {
			if chunks, err = tv.AppendChunks(chunks, 0); err != nil {
				return err
			}
		}
		rec, err := db.snapshotMetaLocked()
		if err != nil {
			return err
		}
		meta := newChunk("", rec)
		meta.Meta = true
		chunks, lsn = append(chunks, meta), v.LSN()
		return nil
	})
	return chunks, lsn, err
}

// SnapshotRecord is one decoded record of a snapshot (or WAL) stream, in
// the engine's value set — the exported counterpart of the internal replay
// entry, used by the vcs layer to replay individual chunk records through
// the public Exec/Batch path.
type SnapshotRecord struct {
	SQL     string
	Args    []any
	Meta    bool
	AutoIDs map[string]int64
	BaseLSN int64
}

// DecodeSnapshotRecords decodes a snapshot (or chunk) byte range into its
// records.
func DecodeSnapshotRecords(data []byte) ([]SnapshotRecord, error) {
	out := make([]SnapshotRecord, 0, bytes.Count(data, []byte{'\n'})+1)
	err := readRecords("chunk", bytes.NewReader(data), func(_ int, e *replayEntry) error {
		out = append(out, SnapshotRecord{
			SQL:     e.SQL,
			Args:    e.Args,
			Meta:    e.Meta,
			AutoIDs: e.AutoIDs,
			BaseLSN: e.BaseLSN,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
