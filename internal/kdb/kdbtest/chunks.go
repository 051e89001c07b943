package kdbtest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/kdb"
)

// ChunkStream is the chunk rule stated over text: the oracle that
// kdb.DB.SnapshotChunks and vcs commits, which cut chunks from the live
// tables, are checked against. It reads a WriteSnapshot stream back record
// by record with encoding/json and starts a chunk at every CREATE TABLE,
// after every kdb.DefaultChunkLines records of a table, and around the meta
// record, which is a chunk of its own. Concatenating the chunks' Data
// reproduces the input byte for byte; a truncated or corrupt record is an
// error.
func ChunkStream(data []byte) ([]kdb.SnapshotChunk, error) {
	var chunks []kdb.SnapshotChunk
	var cur kdb.SnapshotChunk // the table (or meta flag) of the chunk being cut
	start, lines := 0, 0
	cut := func(end int) {
		if end > start {
			sum := sha256.Sum256(data[start:end])
			cur.Hash, cur.Data = hex.EncodeToString(sum[:]), append([]byte(nil), data[start:end]...)
			chunks = append(chunks, cur)
		}
		start, lines = end, 0
	}
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			return nil, fmt.Errorf("kdbtest: chunk stream: truncated record %q", data[off:])
		}
		line := data[off : off+nl+1]
		if len(bytes.TrimSpace(line)) == 0 {
			off += len(line)
			continue
		}
		var e struct {
			SQL     string           `json:"sql"`
			AutoIDs map[string]int64 `json:"auto_ids"`
			BaseLSN int64            `json:"base_lsn"`
			Meta    bool             `json:"meta"`
		}
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("kdbtest: chunk stream: corrupt record: %w", err)
		}
		switch {
		case e.Meta || len(e.AutoIDs) > 0 || e.BaseLSN > 0:
			cut(off)
			cur = kdb.SnapshotChunk{Meta: true}
		case strings.HasPrefix(e.SQL, "CREATE TABLE "):
			cut(off)
			name := e.SQL[len("CREATE TABLE "):]
			cur = kdb.SnapshotChunk{Table: name[:strings.IndexAny(name+" ", " (")]}
		case lines == kdb.DefaultChunkLines:
			cut(off)
		}
		off += len(line)
		lines++
		if cur.Meta {
			cut(off)
			cur = kdb.SnapshotChunk{}
		}
	}
	cut(len(data))
	return chunks, nil
}
