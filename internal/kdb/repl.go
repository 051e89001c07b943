package kdb

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"time"
)

// WAL-shipping replication. A primary's committed log records each carry a
// monotonically increasing LSN (engine.go assigns them at commit time); the
// most recent records are retained in an in-memory catch-up buffer. The
// "replicate" wire verb turns a server connection into a one-way stream of
// those records from a requested offset, interleaved with heartbeats; the
// "delta" verb (chunks the follower lacks) and the "snapshot" verb (the full
// deterministic dump) serve followers too far behind the buffer, which
// restore at the primary's exact LSN with RestoreSnapshot. Followers apply
// each group of records the primary shipped together through ApplyRecords,
// one write step that reuses the engine's normal apply path and appends the
// very same bytes to the follower's own log, so a replica's file replays —
// and dumps — byte-identically to the primary's.

// ErrLSNGap reports a replicated record that does not directly follow the
// local commit sequence; the follower must re-sync from a snapshot.
var ErrLSNGap = errors.New("kdb: replication LSN gap")

// replBufCap bounds the in-memory catch-up buffer (records kept after the
// amortized trim in noteCommit).
const replBufCap = 8192

// replRecord is one committed log record retained for catch-up.
type replRecord struct {
	lsn int64
	raw []byte // exact log line, no trailing newline
}

// replMsg is one server->follower stream message.
type replMsg struct {
	LSN              int64           `json:"lsn,omitempty"`
	Entry            json.RawMessage `json:"entry,omitempty"`
	PrimaryLSN       int64           `json:"primary_lsn,omitempty"`
	Heartbeat        bool            `json:"hb,omitempty"`
	SnapshotRequired bool            `json:"snap,omitempty"`
	Err              string          `json:"err,omitempty"`
}

// NodeStatus is a served database's replication identity, reported by the
// "status" wire verb.
type NodeStatus struct {
	Role string // "primary" or "replica"
	LSN  int64  // last committed (primary) or applied (replica) LSN
	Addr string // advertised address, if the server was given one
}

// LSN returns the last committed log sequence number.
func (db *DB) LSN() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.lsn
}

// CommitNotify returns a channel that is closed at the next commit. Each
// commit closes the previously handed-out channel, so watchers re-arm by
// calling CommitNotify again after a wake-up — the same broadcast the
// replication feed rides, exposed for cache invalidation.
func (db *DB) CommitNotify() <-chan struct{} { return db.commitSignal() }

// commitSignal returns a channel that is closed at the next commit.
func (db *DB) commitSignal() <-chan struct{} {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.commitCh == nil {
		db.commitCh = make(chan struct{})
	}
	return db.commitCh
}

// entriesSince returns copies of the buffered records with LSN > after.
// ok is false when the buffer no longer reaches back to after (or the
// caller is ahead of this database), meaning a full snapshot is required.
func (db *DB) entriesSince(after int64) (recs []replRecord, ok bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if after == db.lsn {
		return nil, true
	}
	if after > db.lsn {
		return nil, false
	}
	if len(db.replBuf) == 0 || db.replBuf[0].lsn > after+1 {
		return nil, false
	}
	start := int(after + 1 - db.replBuf[0].lsn)
	return append([]replRecord(nil), db.replBuf[start:]...), true
}

// ApplyRecords applies a run of replicated log records, each at the LSN its
// event names: one write step whose log records are the primary's own bytes,
// so the follower's file stays byte-identical to the primary's, and whose
// precondition is that the run directly follows the local sequence
// (ErrLSNGap otherwise). However many records the primary shipped together,
// the follower pays one append and one flush for them, and applies all or
// none.
func (db *DB) ApplyRecords(recs []ReplEvent) error {
	stmts := make([]batchStmt, len(recs))
	size := 0
	var c cursor
	for i, r := range recs {
		size += len(r.Entry) + 1
		e, err := decodeRecord(&c, r.Entry)
		if err != nil {
			return fmt.Errorf("kdb: corrupt replicated record: %w", err)
		}
		if e.Meta {
			return fmt.Errorf("kdb: unexpected meta record in replication stream")
		}
		stmts[i] = batchStmt{e.SQL, e.Args}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for i, r := range recs {
		if want := db.lsn + 1 + int64(i); r.LSN != want {
			return fmt.Errorf("%w: record %d onto local %d", ErrLSNGap, r.LSN, want-1)
		}
	}
	return db.commitLocked(func() error {
		if cap(db.step) < size {
			db.step = make([]byte, 0, size)
		}
		for i, st := range stmts {
			mark := len(db.step)
			db.step = append(append(db.step, recs[i].Entry...), '\n')
			if _, err := db.stageRecord(st.sql, st.args, mark, false); err != nil {
				return err
			}
		}
		return nil
	})
}

// RestoreSnapshot replaces the database's entire contents with a snapshot
// previously produced by WriteSnapshot (or the "snapshot" wire verb), at the
// snapshot's own base LSN — a follower's bootstrap, whose bytes must match
// its primary's. The new state is built off to the side first, so a
// malformed snapshot leaves the live database untouched; for file-backed
// databases the snapshot replaces the log file exactly as Compact's does.
func (db *DB) RestoreSnapshot(data []byte) error {
	return db.restore(data, false)
}

// ReplaceState replaces the database's entire contents with a snapshot
// stream from outside replication (a vcs checkout, a reseed). It lands at
// one past the larger of the current LSN and the stream's base, decided
// under the lock, so no reader has seen that LSN with other contents. Followers at any earlier LSN find the catch-up
// buffer empty below it and re-sync by snapshot, and caches keyed on the
// LSN miss. The log written ends with a tagged meta record naming the new
// LSN, so a reopen agrees.
func (db *DB) ReplaceState(data []byte) error {
	return db.restore(data, true)
}

// restore is RestoreSnapshot and ReplaceState: advance moves the LSN past
// everything seen instead of taking the snapshot's base.
func (db *DB) restore(data []byte, advance bool) error {
	scratch, err := replaySnapshot(data)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if advance {
		scratch.lsn = max(db.lsn, scratch.lsn) + 1
		meta, err := EncodeSnapshotMeta(nil, scratch.lsn)
		if err != nil {
			return err
		}
		data = append(data[:len(data):len(data)], meta...)
	}
	if db.path != "" {
		replaced, err := db.replaceLogLocked(func(w *bufio.Writer) error {
			_, err := w.Write(data)
			return err
		})
		if err != nil {
			if replaced {
				// The snapshot on disk is complete, so memory follows it;
				// writes are refused until reopen.
				db.adoptLocked(scratch)
			}
			return err
		}
	}
	db.adoptLocked(scratch)
	return nil
}

// adoptLocked swaps in a freshly restored state and wakes replication
// streams so chained followers notice the new world; db.mu must be held.
func (db *DB) adoptLocked(scratch *DB) {
	// The scratch tables drew their versions while the live ones could
	// still move past them; stamp again under the lock so every replaced
	// table reads as rewritten after anything derived from its predecessor.
	for _, t := range scratch.tables {
		t.noteRewrite()
	}
	db.tables = scratch.tables
	db.lsn = scratch.lsn
	db.replBuf = nil
	if db.commitCh != nil {
		close(db.commitCh)
		db.commitCh = nil
	}
}

// serveReplicate turns one accepted server connection into a replication
// stream: every committed record after the requested LSN, in order, plus
// heartbeats carrying the primary's LSN while idle. The stream ends when
// the follower is too far behind the catch-up buffer (SnapshotRequired),
// when the connection breaks, or when the server shuts down.
func (s *Server) serveReplicate(sc *serverConn, req wireRequest) {
	metReplStreams.Add(1)
	defer metReplStreams.Add(-1)
	enc := json.NewEncoder(sc.c)
	send := func(m replMsg) bool {
		sc.c.SetWriteDeadline(time.Now().Add(s.writeTimeout()))
		return enc.Encode(m) == nil
	}
	cursor := req.AfterLSN
	var out []byte // the frames of one drained batch
	for {
		// Fetch the signal before scanning so a commit between the scan
		// and the wait cannot be lost.
		ch := s.DB.commitSignal()
		recs, ok := s.DB.entriesSince(cursor)
		if !ok {
			send(replMsg{SnapshotRequired: true})
			return
		}
		if len(recs) == 0 {
			idle := time.NewTimer(s.heartbeatInterval())
			select {
			case <-ch:
				idle.Stop()
			case <-idle.C:
				if !send(replMsg{Heartbeat: true, PrimaryLSN: s.DB.LSN()}) {
					return
				}
			case <-s.done:
				idle.Stop()
				return
			}
			continue
		}
		// Everything the buffer returned goes out in one write; the cursor
		// moves only once the follower's socket has taken it.
		primaryLSN := s.DB.LSN()
		need := 0
		for _, rec := range recs {
			need += len(rec.raw) + 64 // a frame is its record and two numbers
		}
		if out = out[:0]; cap(out) < need {
			out = make([]byte, 0, need)
		}
		for _, rec := range recs {
			var err error
			if out, err = appendReplFrame(out, rec.lsn, rec.raw, primaryLSN); err != nil {
				return
			}
		}
		sc.c.SetWriteDeadline(time.Now().Add(s.writeTimeout()))
		if _, err := sc.c.Write(out); err != nil {
			return
		}
		metReplRecordsSent.Add(int64(len(recs)))
		cursor = recs[len(recs)-1].lsn
		out = keepScratch(out)
	}
}

// ReplEvent is one decoded message from a replication stream.
type ReplEvent struct {
	LSN              int64
	Entry            []byte
	PrimaryLSN       int64
	Heartbeat        bool
	SnapshotRequired bool
}

// ReplStream is a follower's view of a primary's replication stream. It is
// used by a single goroutine (the follower apply loop).
type ReplStream struct {
	conn    net.Conn
	in      lineReader
	timeout time.Duration
	// group is RecvGroup's result, reused from call to call. ahead is the
	// message it read past the end of a group, for the next receive; err the
	// failure that ended one, after which the stream is not read again.
	group []ReplEvent
	ahead *ReplEvent
	err   error
}

// maxGroupBytes bounds the records RecvGroup hands over as one group, so a
// follower catching up on a long backlog applies it in steps.
const maxGroupBytes = 1 << 20

// DialReplication opens a replication stream delivering every committed
// record after afterLSN. recvTimeout bounds each receive; with heartbeats
// arriving every Server.HeartbeatInterval, a receive timeout means the
// primary is unreachable and the follower should re-sync.
func DialReplication(addr string, afterLSN int64, recvTimeout time.Duration) (*ReplStream, error) {
	hostport := strings.TrimPrefix(addr, "kdb://")
	conn, err := net.DialTimeout("tcp", hostport, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("kdb: dial %s: %w", addr, err)
	}
	if err := json.NewEncoder(conn).Encode(wireRequest{Op: "replicate", AfterLSN: afterLSN}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("kdb: start replication: %w", err)
	}
	// The primary ships a drained batch in one write; a reader as large as
	// the scratch buffers takes it in few reads.
	return &ReplStream{conn: conn, in: lineReader{br: bufio.NewReaderSize(conn, maxScratch)}, timeout: recvTimeout}, nil
}

// RecvGroup blocks for the next stream message and, when it is a record,
// for the records known to follow it: every record frame carries the
// primary's LSN as of the write that shipped it, so a record below that LSN
// has successors already on their way, and a run the primary shipped
// together comes back together, for ApplyRecords to apply as one write step.
// Any other message comes back alone. The slice is only valid until the next
// call.
func (s *ReplStream) RecvGroup() ([]ReplEvent, error) {
	ev, err := s.recv()
	if err != nil {
		return nil, err
	}
	s.group = append(s.group[:0], ev)
	for size := len(ev.Entry); len(ev.Entry) > 0 && ev.LSN < ev.PrimaryLSN && size < maxGroupBytes; size += len(ev.Entry) {
		next, err := s.recv()
		if err != nil {
			s.err = err // the records already here are good; the failure is the next call's answer
			break
		}
		if len(next.Entry) == 0 || next.LSN != ev.LSN+1 {
			s.ahead = &next
			break
		}
		ev = next
		s.group = append(s.group, ev)
	}
	return s.group, nil
}

// recv blocks for the next stream message.
func (s *ReplStream) recv() (ReplEvent, error) {
	if s.ahead != nil {
		ev := *s.ahead
		s.ahead = nil
		return ev, nil
	}
	if s.err != nil {
		return ReplEvent{}, s.err
	}
	if s.timeout > 0 {
		s.conn.SetReadDeadline(time.Now().Add(s.timeout))
	}
	line, err := s.in.next()
	if err != nil {
		return ReplEvent{}, fmt.Errorf("kdb: replication receive: %w", err)
	}
	if ev, ok := scanReplFrame(line); ok {
		return ev, nil
	}
	// Heartbeats, snapshot-required, errors and any frame a peer spelled
	// differently.
	var m replMsg
	if err := json.Unmarshal(line, &m); err != nil {
		return ReplEvent{}, fmt.Errorf("kdb: replication receive: %w", err)
	}
	if m.Err != "" {
		return ReplEvent{}, wireError{m.Err}
	}
	return ReplEvent{
		LSN:              m.LSN,
		Entry:            []byte(m.Entry),
		PrimaryLSN:       m.PrimaryLSN,
		Heartbeat:        m.Heartbeat,
		SnapshotRequired: m.SnapshotRequired,
	}, nil
}

// Close tears down the stream's connection.
func (s *ReplStream) Close() error { return s.conn.Close() }

// Status reports the served database's role and LSN — the read router's
// staleness probe.
func (r *Remote) Status() (NodeStatus, error) {
	resp, _, err := r.roundTrip(wireRequest{Op: "status"}, nil, true)
	if err != nil {
		return NodeStatus{}, err
	}
	return NodeStatus{Role: resp.Role, LSN: resp.LSN, Addr: resp.Addr}, nil
}

// Snapshot fetches a full snapshot of the served database and the LSN it
// represents — the follower's bootstrap and re-sync transfer.
func (r *Remote) Snapshot() ([]byte, int64, error) {
	resp, _, err := r.roundTrip(wireRequest{Op: "snapshot"}, nil, true)
	if err != nil {
		return nil, 0, err
	}
	return resp.Snapshot, resp.LSN, nil
}

// SnapshotDelta fetches an incremental snapshot: the ordered chunk
// manifest of the served database's current snapshot, data for exactly
// the chunks not named in have, and the LSN the snapshot represents.
// Reassembling the manifest (local chunks where possible, shipped bytes
// otherwise) reproduces the WriteSnapshot stream byte-for-byte; see
// ReassembleSnapshot.
func (r *Remote) SnapshotDelta(have []string) ([]ChunkRef, [][]byte, int64, error) {
	resp, _, err := r.roundTrip(wireRequest{Op: "delta", Have: have}, nil, true)
	if err != nil {
		return nil, nil, 0, err
	}
	return resp.Manifest, resp.Chunks, resp.LSN, nil
}

// ReassembleSnapshot rebuilds a full snapshot stream from a delta
// manifest: each chunk's bytes come from the local store (lookup, which
// may return nil to decline) or from shipped, consumed in manifest order.
// Every reassembled chunk is re-hashed against its reference, so a stale
// or corrupt local segment fails loudly instead of restoring a diverged
// state.
func ReassembleSnapshot(manifest []ChunkRef, shipped [][]byte, lookup func(hash string) []byte) ([]byte, error) {
	var out bytes.Buffer
	next := 0
	for i, ref := range manifest {
		var data []byte
		if lookup != nil {
			data = lookup(ref.Hash)
		}
		if data == nil {
			if next >= len(shipped) {
				return nil, fmt.Errorf("kdb: delta manifest entry %d (%s): chunk neither held locally nor shipped", i, ref.Hash)
			}
			data = shipped[next]
			next++
		}
		sum := sha256.Sum256(data)
		if hex.EncodeToString(sum[:]) != ref.Hash {
			return nil, fmt.Errorf("kdb: delta manifest entry %d: chunk hash mismatch", i)
		}
		out.Write(data)
	}
	if next != len(shipped) {
		return nil, fmt.Errorf("kdb: delta reassembly consumed %d of %d shipped chunks", next, len(shipped))
	}
	return out.Bytes(), nil
}

// ShardMap fetches the epoch-versioned partition map served by a
// coordinator node. The bytes are opaque to kdb; the shard package owns
// their JSON shape.
func (r *Remote) ShardMap() (epoch int64, data []byte, err error) {
	resp, _, err := r.roundTrip(wireRequest{Op: "shardmap"}, nil, true)
	if err != nil {
		return 0, nil, err
	}
	return resp.Epoch, resp.ShardMap, nil
}
