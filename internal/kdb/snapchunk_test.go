package kdb

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func chunkFixture(t *testing.T) (*DB, []byte) {
	t.Helper()
	db := memDB(t)
	mustExec(t, db, "CREATE TABLE alpha (id INTEGER PRIMARY KEY, v TEXT)")
	mustExec(t, db, "CREATE INDEX idx_alpha_v ON alpha (v)")
	for i := 0; i < 700; i++ { // spans two chunks at DefaultChunkLines
		mustExec(t, db, "INSERT INTO alpha (v) VALUES (?)", fmt.Sprintf("a%03d", i))
	}
	mustExec(t, db, "CREATE TABLE beta (id INTEGER PRIMARY KEY, x REAL)")
	mustExec(t, db, "INSERT INTO beta (x) VALUES (?)", 2.5)
	var buf bytes.Buffer
	if _, err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return db, buf.Bytes()
}

func TestChunkSnapshotConcatenationIsIdentity(t *testing.T) {
	db, data := chunkFixture(t)
	chunks, _, err := db.SnapshotChunks()
	if err != nil {
		t.Fatal(err)
	}
	var cat bytes.Buffer
	for _, c := range chunks {
		cat.Write(c.Data)
	}
	if !bytes.Equal(cat.Bytes(), data) {
		t.Fatal("concatenated chunks do not reproduce the snapshot stream")
	}
	// Boundaries: every chunk belongs to one table (or the meta record),
	// alpha spans multiple chunks, and chunking is deterministic.
	tables := map[string]int{}
	metas := 0
	for _, c := range chunks {
		if c.Meta {
			metas++
			continue
		}
		tables[c.Table]++
	}
	if metas != 1 || !chunks[len(chunks)-1].Meta {
		t.Fatalf("meta chunks = %d, want 1 and last", metas)
	}
	if tables["alpha"] < 2 {
		t.Fatalf("alpha chunks = %d, want >= 2 (700 rows over %d-line chunks)", tables["alpha"], DefaultChunkLines)
	}
	if tables["beta"] != 1 {
		t.Fatalf("beta chunks = %d, want 1", tables["beta"])
	}
	again, _, err := db.SnapshotChunks()
	if err != nil {
		t.Fatal(err)
	}
	for i := range chunks {
		if chunks[i].Hash != again[i].Hash {
			t.Fatalf("chunking not deterministic at %d", i)
		}
	}
}

func TestReassembleSnapshot(t *testing.T) {
	db, data := chunkFixture(t)
	chunks, _, err := db.SnapshotChunks()
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]ChunkRef, len(chunks))
	for i, c := range chunks {
		refs[i] = ChunkRef{Table: c.Table, Hash: c.Hash, Size: len(c.Data), Meta: c.Meta}
	}
	// Lookup serves even chunks locally; odd chunks ship.
	var shipped [][]byte
	local := map[string][]byte{}
	for i, c := range chunks {
		if i%2 == 0 {
			local[c.Hash] = c.Data
		} else {
			shipped = append(shipped, c.Data)
		}
	}
	out, err := ReassembleSnapshot(refs, shipped, func(h string) []byte { return local[h] })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("reassembled snapshot differs from original")
	}

	// Error paths: shortfall, hash mismatch, unconsumed chunks.
	if _, err := ReassembleSnapshot(refs, nil, func(string) []byte { return nil }); err == nil {
		t.Error("missing chunks must error")
	}
	tampered := append([][]byte(nil), shipped...)
	tampered[0] = []byte("{\"sql\":\"evil\"}\n")
	if _, err := ReassembleSnapshot(refs, tampered, func(h string) []byte { return local[h] }); err == nil ||
		!strings.Contains(err.Error(), "hash") {
		t.Errorf("tampered chunk must fail hash verification, got %v", err)
	}
	extra := append(append([][]byte(nil), shipped...), []byte("x\n"))
	if _, err := ReassembleSnapshot(refs, extra, func(h string) []byte { return local[h] }); err == nil {
		t.Error("unconsumed shipped chunks must error")
	}
}

// TestSnapshotDeltaWire drives the "delta" verb end to end: a client that
// already holds some chunks receives only the missing ones and rebuilds
// the exact snapshot.
func TestSnapshotDeltaWire(t *testing.T) {
	db, addr := startServer(t)
	mustExec(t, db, "CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)")
	for i := 0; i < 20; i++ {
		mustExec(t, db, "INSERT INTO kv (v) VALUES (?)", fmt.Sprintf("v%d", i))
	}
	var want bytes.Buffer
	wantLSN, err := db.WriteSnapshot(&want)
	if err != nil {
		t.Fatal(err)
	}
	chunks, _, err := db.SnapshotChunks()
	if err != nil {
		t.Fatal(err)
	}

	r, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Cold client: everything ships.
	manifest, shipped, lsn, err := r.SnapshotDelta(nil)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != wantLSN || len(shipped) != len(chunks) {
		t.Fatalf("cold delta: lsn=%d shipped=%d, want lsn=%d shipped=%d", lsn, len(shipped), wantLSN, len(chunks))
	}
	out, err := ReassembleSnapshot(manifest, shipped, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want.Bytes()) {
		t.Fatal("cold delta did not reassemble the snapshot")
	}

	// Warm client holding all but the meta chunk: only that ships.
	have := map[string][]byte{}
	var keys []string
	for _, c := range chunks {
		if c.Meta {
			continue
		}
		have[c.Hash] = c.Data
		keys = append(keys, c.Hash)
	}
	manifest, shipped, _, err = r.SnapshotDelta(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(shipped) != 1 {
		t.Fatalf("warm delta shipped %d chunks, want just the meta record", len(shipped))
	}
	out, err = ReassembleSnapshot(manifest, shipped, func(h string) []byte { return have[h] })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want.Bytes()) {
		t.Fatal("warm delta did not reassemble the snapshot")
	}
}

// TestGoldenDeltaResponse pins the "delta" verb's answer byte for byte — the
// manifest, the shipped chunks and the LSN — for a scripted database: once
// to a client holding nothing, and once to one holding two of its chunks
// and a hash the server has never cut. The constants predate cutting the
// chunks from the live tables instead of from the snapshot text.
func TestGoldenDeltaResponse(t *testing.T) {
	const (
		wantCold = "919cbdb8756f9c2e93bd11b4847d1de1a12ae36f9b0da9c28b267a801dff261c" // 225,649 bytes
		wantWarm = "2e57c40249192e25adeea71c7da6c4faa12d464a7b218da54c4bd635571d9129" // 129,655 bytes
	)
	db, addr := startServer(t)
	defer db.Close()
	mustExec(t, db, "CREATE TABLE runs (id INTEGER PRIMARY KEY, app TEXT, gbps REAL, nodes INTEGER)")
	mustExec(t, db, "CREATE INDEX idx_runs_app ON runs (app)")
	for i := 0; i < 1200; i++ {
		var nodes any = int64(i % 64)
		if i%9 == 0 {
			nodes = nil
		}
		mustExec(t, db, "INSERT INTO runs (app, gbps, nodes) VALUES (?, ?, ?)", fmt.Sprintf("app-%d ✓", i%7), float64(i)*0.25, nodes)
	}
	mustExec(t, db, "DELETE FROM runs WHERE id > ?", int64(1190))
	mustExec(t, db, "UPDATE runs SET gbps = ? WHERE app = ?", -1.5, "app-3 ✓")
	mustExec(t, db, "CREATE TABLE empty_t (id INTEGER PRIMARY KEY, v TEXT)")
	mustExec(t, db, "CREATE TABLE notes (k TEXT, v TEXT)")
	mustExec(t, db, "INSERT INTO notes (k, v) VALUES (?, ?)", "quote", "line1\nline2 \"q\" <&>")

	cold := rawExchange(t, addr, `{"op":"delta"}`+"\n", false)
	var resp wireResponse
	if err := json.Unmarshal([]byte(cold), &resp); err != nil || resp.Err != "" {
		t.Fatalf("cold delta: %v %s", err, resp.Err)
	}
	// empty_t, notes, runs in three chunks (1,192 records), the meta record.
	if len(resp.Manifest) != 6 || len(resp.Chunks) != 6 {
		t.Fatalf("cold delta: %d manifest entries, %d chunks; want 6 and 6", len(resp.Manifest), len(resp.Chunks))
	}
	have, err := json.Marshal([]string{resp.Manifest[0].Hash, resp.Manifest[2].Hash, strings.Repeat("0", 64)})
	if err != nil {
		t.Fatal(err)
	}
	warm := rawExchange(t, addr, `{"op":"delta","have":`+string(have)+"}\n", false)
	resp = wireResponse{}
	if err := json.Unmarshal([]byte(warm), &resp); err != nil || len(resp.Chunks) != 4 {
		t.Fatalf("warm delta: %v, %d chunks shipped, want 4", err, len(resp.Chunks))
	}
	for _, c := range []struct{ name, line, want string }{{"cold", cold, wantCold}, {"warm", warm, wantWarm}} {
		sum := sha256.Sum256([]byte(c.line))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s delta response sha256 = %s (%d bytes), want %s", c.name, got, len(c.line), c.want)
		}
	}
}
