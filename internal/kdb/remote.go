package kdb

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// The paper's persistence phase stores knowledge "either directly as a
// local SQLite database or by specifying a SQL connection URL remotely"
// (§V-C). This file provides that remote path: a line-delimited JSON
// protocol exposing Exec/Query over TCP, a Server wrapping a local DB, and
// a Remote client satisfying the same Conn interface as *DB, so the
// knowledge store works identically against either.
//
// Server lifecycle: Serve accepts until the listener closes; Shutdown
// stops accepting, closes idle connections immediately, lets in-flight
// requests finish (bounded by the context), then force-closes stragglers.
// Each connection gets a read deadline between requests (IdleTimeout) and
// a write deadline per response (WriteTimeout), and the number of
// concurrently served connections is capped at MaxConns — excess dials
// receive a structured error response and are closed. Malformed requests
// likewise receive a wireResponse carrying the parse error instead of a
// silent hangup.

// Conn is the complete database surface every layer above the engine
// programs against: statements with and without an explicit trace context,
// the connection's commit position, the table list, and Close. *DB
// (embedded), *Remote (wire client), repl.Router and repl.Session (read
// routing) and shard.Coordinator (scatter-gather) all implement it, so no
// layer has to ask a connection what it can do.
//
// Query and Exec are QueryTraced and ExecTraced with an empty context, and
// forwarding layers (the wire server, the router, the coordinator) always
// call the traced pair. A wrapper that embeds a Conn to intercept
// statements must therefore override both pairs, or traffic arriving
// through a forwarding layer bypasses it.
//
// LSN is the connection's own view of the commit position — exact for an
// embedded database, a passive high-water mark for a wire client, the last
// write for a router session, the per-shard maximum for a coordinator. It
// never costs a round trip.
//
// Batching is reached through Batch and BatchKeyed (engine.go), which give
// every connection here an all-or-nothing unit of work: one write step on an
// embedded database, one "batch" request over the wire.
type Conn interface {
	TracedConn
	Exec(query string, args ...any) (Result, error)
	Query(query string, args ...any) (*Rows, error)
	QueryRow(query string, args ...any) ([]any, error)
	LSN() int64
	Tables() []string
	Close() error
}

// TracedConn is the trace-context-carrying statement pair of a Conn: the
// same Query/Exec, plus the context to attach the work to. An empty context
// means untraced.
type TracedConn interface {
	QueryTraced(tc telemetry.TraceContext, query string, args ...any) (*Rows, error)
	ExecTraced(tc telemetry.TraceContext, query string, args ...any) (Result, error)
}

var (
	_ Conn = (*DB)(nil)
	_ Conn = (*Remote)(nil)
)

// wireRequest is one client->server message.
type wireRequest struct {
	Op   string   `json:"op"` // "exec", "query", "batch", "tables", "status", "snapshot", "delta", "replicate", "shardmap"
	SQL  string   `json:"sql,omitempty"`
	Args []walArg `json:"args,omitempty"`
	// Key and Stmts are the "batch" op: the statements of one unit of work,
	// applied all or none, and the placement key when the client gave one
	// (BatchKeyed) — omitted otherwise, so an unkeyed batch's bytes do not
	// depend on it. A statement's argument may be {"k":"ref","v":"i"}: the
	// last_id of statement i of the same batch, i below its own index.
	Key   *uint64    `json:"key,omitempty"`
	Stmts []wireStmt `json:"stmts,omitempty"`
	// AfterLSN is the replication offset for the "replicate" op: the
	// stream delivers every committed record with a greater LSN.
	AfterLSN int64 `json:"after_lsn,omitempty"`
	// Have lists the snapshot chunk hashes the client already holds, for
	// the "delta" op: the response manifest references them instead of
	// re-shipping their bytes.
	Have []string `json:"have,omitempty"`
	// TraceID and SpanID propagate the caller's trace context so server-side
	// work joins the client's trace. Both are optional: old clients omit
	// them (untraced request), and old servers ignore them — json decoding
	// drops unknown fields — so mixed-version peers interoperate, merely
	// losing the server-side spans.
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
}

// wireStmt is one statement of a batch request, in the log record's shape.
type wireStmt struct {
	SQL  string   `json:"sql,omitempty"`
	Args []walArg `json:"args,omitempty"`
}

// wireResponse is one server->client message.
type wireResponse struct {
	Err          string     `json:"err,omitempty"`
	LastInsertID int64      `json:"last_id,omitempty"`
	RowsAffected int        `json:"affected,omitempty"`
	Columns      []string   `json:"cols,omitempty"`
	Rows         [][]walArg `json:"rows,omitempty"`
	// IDs answers the "batch" op: each statement's last_id, in order; LSN is
	// then the batch's last record.
	IDs      []int64  `json:"ids,omitempty"`
	Tables   []string `json:"tables,omitempty"`
	LSN      int64    `json:"lsn,omitempty"`
	Role     string   `json:"role,omitempty"`
	Addr     string   `json:"addr,omitempty"`
	Snapshot []byte   `json:"snapshot,omitempty"`
	// Epoch and ShardMap answer the "shardmap" verb: an opaque,
	// epoch-versioned partition map (the shard package defines its JSON
	// shape; kdb only transports it).
	Epoch    int64  `json:"epoch,omitempty"`
	ShardMap []byte `json:"shard_map,omitempty"`
	// Manifest and Chunks answer the "delta" verb: the ordered chunk
	// references of the current snapshot, plus data for exactly those
	// chunks the request's Have set did not cover.
	Manifest []ChunkRef `json:"manifest,omitempty"`
	Chunks   [][]byte   `json:"chunks,omitempty"`
}

// ChunkRef identifies one snapshot chunk in a delta manifest.
type ChunkRef struct {
	Table string `json:"t,omitempty"`
	Hash  string `json:"h"`
	Size  int    `json:"n"`
	Meta  bool   `json:"m,omitempty"`
}

// Server limits and deadlines used when the corresponding field is zero.
const (
	DefaultMaxConns          = 256
	DefaultIdleTimeout       = 5 * time.Minute
	DefaultWriteTimeout      = 30 * time.Second
	DefaultHeartbeatInterval = time.Second
)

// Server exposes a local database over the wire protocol.
type Server struct {
	DB *DB

	// Backend, when set, handles exec/query/tables instead of DB — it is
	// how a scatter-gather coordinator (or any other Conn) is served over
	// the same wire protocol. Replication verbs (snapshot, replicate)
	// need the real database and answer an error when only a Backend is
	// present. When both are nil the server refuses requests.
	Backend Conn

	// ShardMapFunc, when set, answers the "shardmap" verb with an
	// epoch-versioned partition map. Coordinator nodes serve their map
	// here so clients can fetch it and connect to the shards directly.
	ShardMapFunc func() (epoch int64, data []byte)

	// MaxConns caps concurrently served connections; dials beyond the cap
	// get an error response and are closed. 0 means DefaultMaxConns.
	MaxConns int
	// IdleTimeout bounds how long a connection may sit between requests
	// before the server closes it. 0 means DefaultIdleTimeout.
	IdleTimeout time.Duration
	// WriteTimeout bounds writing one response. 0 means DefaultWriteTimeout.
	WriteTimeout time.Duration

	// Role is reported by the "status" verb: "primary" (the default) or
	// "replica".
	Role string
	// Advertise is the externally reachable address reported by the
	// "status" verb and /healthz, for deployments behind NAT or proxies.
	Advertise string
	// ReadOnly rejects "exec" requests — set on replicas, whose only
	// writer must be the replication apply loop, so a stray client
	// cannot fork the commit sequence.
	ReadOnly bool
	// HeartbeatInterval paces replication heartbeats while a stream is
	// idle. 0 means DefaultHeartbeatInterval.
	HeartbeatInterval time.Duration

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*serverConn]struct{}
	wg        sync.WaitGroup
	closed    bool
	// done is closed by Shutdown so long-lived replication streams stop
	// promptly instead of waiting out their heartbeat timers.
	done chan struct{}
}

// serverConn tracks one accepted connection and whether a request is
// currently being served on it, so Shutdown can drain in-flight work while
// closing idle connections immediately.
type serverConn struct {
	c          net.Conn
	mu         sync.Mutex
	inFlight   bool
	closeAfter bool
}

func (s *Server) maxConns() int {
	if s.MaxConns > 0 {
		return s.MaxConns
	}
	return DefaultMaxConns
}

func (s *Server) idleTimeout() time.Duration {
	if s.IdleTimeout > 0 {
		return s.IdleTimeout
	}
	return DefaultIdleTimeout
}

func (s *Server) writeTimeout() time.Duration {
	if s.WriteTimeout > 0 {
		return s.WriteTimeout
	}
	return DefaultWriteTimeout
}

func (s *Server) heartbeatInterval() time.Duration {
	if s.HeartbeatInterval > 0 {
		return s.HeartbeatInterval
	}
	return DefaultHeartbeatInterval
}

func (s *Server) role() string {
	if s.Role != "" {
		return s.Role
	}
	return "primary"
}

// initLocked lazily creates the server's shared state; s.mu must be held.
func (s *Server) initLocked() {
	if s.listeners == nil {
		s.listeners = map[net.Listener]struct{}{}
	}
	if s.conns == nil {
		s.conns = map[*serverConn]struct{}{}
	}
	if s.done == nil {
		s.done = make(chan struct{})
	}
}

// Serve accepts connections until the listener closes (or Shutdown is
// called, which closes it). Each connection handles requests sequentially;
// connections are served concurrently. After Shutdown, Serve returns nil.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return fmt.Errorf("kdb: server is shut down")
	}
	s.initLocked()
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		sc := &serverConn{c: conn}
		s.mu.Lock()
		over := len(s.conns) >= s.maxConns()
		if !over {
			s.conns[sc] = struct{}{}
			s.wg.Add(1)
		}
		s.mu.Unlock()
		if over {
			// Refuse politely: one structured error, then close.
			conn.SetWriteDeadline(time.Now().Add(s.writeTimeout()))
			json.NewEncoder(conn).Encode(wireResponse{Err: "kdb: server connection limit reached"})
			conn.Close()
			continue
		}
		go s.handle(sc)
	}
}

func (s *Server) handle(sc *serverConn) {
	metServerOpenConns.Add(1)
	defer func() {
		metServerOpenConns.Add(-1)
		sc.c.Close()
		s.mu.Lock()
		delete(s.conns, sc)
		s.mu.Unlock()
		s.wg.Done()
	}()
	in := lineReader{br: bufio.NewReader(sc.c)}
	enc := json.NewEncoder(sc.c)
	var out []byte // the statement answer being written; kept between requests while small
	// respond writes one response and reports whether the connection is
	// still good. Only a statement's answer is built in out: a cold verb's
	// — a snapshot is megabytes — goes from the library's buffer to the
	// socket without a copy of it being made here.
	respond := func(op string, resp *wireResponse, rows [][]any) bool {
		sc.c.SetWriteDeadline(time.Now().Add(s.writeTimeout()))
		if !isStatement(op) && op != "batch" {
			return enc.Encode(resp) == nil
		}
		var err error
		if out, err = appendResponse(out[:0], resp, rows); err != nil {
			return false
		}
		_, err = sc.c.Write(out)
		out = keepScratch(out)
		return err == nil
	}
	for {
		sc.c.SetReadDeadline(time.Now().Add(s.idleTimeout()))
		line, err := in.next()
		if err != nil {
			return // end of stream, timeout or transport failure; nothing to tell the peer
		}
		req, ok := decodeRequest(line)
		if !ok {
			// Malformed request: report the error instead of hanging up
			// silently. Where the next message starts is anyone's guess
			// after a syntax error, so the connection closes after the
			// response.
			respond("", &wireResponse{Err: "kdb: malformed request: " + req.err.Error()}, nil)
			return
		}
		if req.Op == "replicate" {
			if s.DB == nil {
				respond("", &wireResponse{Err: "kdb: this node serves no local database to replicate"}, nil)
				return
			}
			// The connection becomes a one-way stream; it stays "idle"
			// from Shutdown's point of view, so shutdown closes it
			// immediately and the follower re-syncs elsewhere.
			s.serveReplicate(sc, req.wireRequest)
			return
		}
		sc.mu.Lock()
		sc.inFlight = true
		sc.mu.Unlock()
		resp, rows := s.dispatch(&req)
		good := respond(req.Op, &resp, rows)
		sc.mu.Lock()
		sc.inFlight = false
		drained := sc.closeAfter
		sc.mu.Unlock()
		if !good || drained {
			return
		}
	}
}

// conn is the request-serving connection: the explicit Backend when set,
// the local database otherwise.
func (s *Server) conn() Conn {
	if s.Backend != nil {
		return s.Backend
	}
	return s.DB
}

// traceNode names this server in spans: the advertised address when known,
// the role otherwise.
func (s *Server) traceNode() string {
	if s.Advertise != "" {
		return s.Advertise
	}
	return s.role()
}

// request is one request as the server reads it: the envelope, and a
// statement's arguments or a batch's statements as engine values. err is
// why those did not decode, answered in place of the request.
type request struct {
	wireRequest
	args  []any
	stmts []batchStmt
	err   error
}

// decodeRequest reads one request line. exec, query and batch in this
// package's own spelling go through the scanner; any other spelling or op
// is decoded by the structs. ok is false only when the line is not JSON at
// all (req.err says why).
func decodeRequest(line []byte) (req request, ok bool) {
	if req.wireRequest, req.args, ok = scanStatementRequest(line); ok {
		return req, true
	}
	if req.wireRequest, req.stmts, ok = scanBatchRequest(line); ok {
		return req, true
	}
	req = request{}
	if req.err = json.Unmarshal(line, &req.wireRequest); req.err != nil {
		return req, false
	}
	if req.args, req.err = decodeArgs(req.Args); req.err == nil && req.Op == "batch" {
		req.stmts, req.err = decodeStmts(req.Stmts)
	}
	return req, true
}

// dispatch answers one request. A query's rows come back beside the
// response as engine values, for the response encoder to write straight
// from.
func (s *Server) dispatch(req *request) (wireResponse, [][]any) {
	metServerRequests.Inc()
	if req.err != nil {
		return wireResponse{Err: req.err.Error()}, nil
	}
	switch req.Op {
	case "batch":
		return s.batch(req), nil
	case "exec":
		if s.ReadOnly {
			return wireResponse{Err: "kdb: read-only replica rejects mutations"}, nil
		}
		hop := telemetry.StartHop(telemetry.TraceContext{TraceID: req.TraceID, SpanID: req.SpanID}, "server.exec")
		hop.SetNode(s.traceNode())
		hop.SetSQL(req.SQL)
		res, err := s.conn().ExecTraced(hop.Context(), req.SQL, req.args...)
		if err != nil {
			hop.Fail(err)
			return wireResponse{Err: err.Error()}, nil
		}
		hop.AttrInt("rows_affected", int64(res.RowsAffected))
		hop.End()
		return wireResponse{LastInsertID: res.LastInsertID, RowsAffected: res.RowsAffected, LSN: res.LSN}, nil
	case "status":
		st := wireResponse{Role: s.role(), Addr: s.Advertise}
		if s.DB != nil {
			st.LSN = s.DB.LSN()
		} else if s.Backend != nil {
			st.LSN = s.Backend.LSN()
		}
		return st, nil
	case "snapshot":
		if s.DB == nil {
			return wireResponse{Err: "kdb: this node serves no local database to snapshot"}, nil
		}
		var buf bytes.Buffer
		lsn, err := s.DB.WriteSnapshot(&buf)
		if err != nil {
			return wireResponse{Err: err.Error()}, nil
		}
		metReplSnapshotBytes.Add(int64(buf.Len()))
		return wireResponse{Snapshot: buf.Bytes(), LSN: lsn}, nil
	case "delta":
		// Incremental snapshot: the full manifest of the current snapshot's
		// content-addressed chunks, cut from the live tables, with bytes only
		// for the segments the client does not already hold. Reassembling
		// manifest order yields the exact WriteSnapshot stream, so delta
		// catch-up converges byte-identically to a full snapshot transfer.
		if s.DB == nil {
			return wireResponse{Err: "kdb: this node serves no local database to snapshot"}, nil
		}
		chunks, lsn, err := s.DB.SnapshotChunks()
		if err != nil {
			return wireResponse{Err: err.Error()}, nil
		}
		have := make(map[string]bool, len(req.Have))
		for _, h := range req.Have {
			have[h] = true
		}
		resp := wireResponse{LSN: lsn}
		shipped := 0
		for _, c := range chunks {
			resp.Manifest = append(resp.Manifest, ChunkRef{Table: c.Table, Hash: c.Hash, Size: len(c.Data), Meta: c.Meta})
			if !have[c.Hash] {
				resp.Chunks = append(resp.Chunks, c.Data)
				shipped += len(c.Data)
			}
		}
		metReplSnapshotBytes.Add(int64(shipped))
		return resp, nil
	case "query":
		hop := telemetry.StartHop(telemetry.TraceContext{TraceID: req.TraceID, SpanID: req.SpanID}, "server.query")
		hop.SetNode(s.traceNode())
		hop.SetSQL(req.SQL)
		rows, err := s.conn().QueryTraced(hop.Context(), req.SQL, req.args...)
		if err != nil {
			hop.Fail(err)
			return wireResponse{Err: err.Error()}, nil
		}
		hop.AttrInt("rows", int64(rows.Len()))
		hop.End()
		return wireResponse{Columns: rows.Columns}, rows.All()
	case "tables":
		return wireResponse{Tables: s.conn().Tables()}, nil
	case "shardmap":
		if s.ShardMapFunc == nil {
			return wireResponse{Err: "kdb: this node serves no shard map"}, nil
		}
		epoch, data := s.ShardMapFunc()
		return wireResponse{Epoch: epoch, ShardMap: data}, nil
	}
	return wireResponse{Err: fmt.Sprintf("kdb: unknown wire op %q", req.Op)}, nil
}

// Listen serves the database on addr in a background goroutine. It returns
// the bound listener so callers can learn the ephemeral port; stop the
// server with Shutdown (or by closing the listener).
func (s *Server) Listen(addr string) (net.Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("kdb: listen %s: %w", addr, err)
	}
	go s.Serve(l) //nolint:errcheck — Serve exits when l closes
	return l, nil
}

// Shutdown gracefully stops the server: it closes every listener, closes
// idle connections, and waits for in-flight requests to finish. If the
// context expires first, remaining connections are force-closed and the
// context's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.initLocked()
	if !s.closed {
		s.closed = true
		close(s.done)
	}
	for l := range s.listeners {
		l.Close()
	}
	for sc := range s.conns {
		sc.mu.Lock()
		if sc.inFlight {
			sc.closeAfter = true // handler closes after the response
		} else {
			sc.c.Close()
		}
		sc.mu.Unlock()
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for sc := range s.conns {
			sc.c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Remote is a client for a served database. It is safe for concurrent use;
// requests are serialized over one connection. If the connection breaks
// (server restart, network blip), the next idempotent request transparently
// redials and retries once; mutations are never retried — the client
// redials so subsequent requests work, but reports the original error,
// since the server may or may not have applied the lost mutation.
type Remote struct {
	mu   sync.Mutex
	addr string // host:port retained for reconnects
	conn net.Conn
	in   lineReader
	out  []byte // the request being written; kept between requests while small
	// batch is the last batch's request line, kept like out for the next one
	// to be recorded into; it is not out, because a batch is recorded without
	// holding mu.
	batch  []byte
	closed bool
	// lsn is the highest server LSN observed on any response — a passive
	// high-water mark (no extra round trips) used for cache validity.
	lsn atomic.Int64
	// noBatch is set once the server on this connection has answered that it
	// does not know the "batch" op; batches are then replayed as execs.
	noBatch atomic.Bool
}

// LSN returns the highest log sequence number this client has observed
// from the server — a lower bound on the server's position, monotonic per
// client. It never issues a request; use Status for an active probe.
func (r *Remote) LSN() int64 { return r.lsn.Load() }

// noteLSN advances the observed high-water mark.
func (r *Remote) noteLSN(lsn int64) {
	for {
		cur := r.lsn.Load()
		if lsn <= cur || r.lsn.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// dialTimeout bounds connection establishment, including reconnects.
const dialTimeout = 10 * time.Second

// Dial connects to a kdb server. The address accepts an optional kdb://
// scheme prefix — the paper's "SQL connection URL".
func Dial(addr string) (*Remote, error) {
	hostport := strings.TrimPrefix(addr, "kdb://")
	conn, err := net.DialTimeout("tcp", hostport, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("kdb: dial %s: %w", addr, err)
	}
	r := &Remote{addr: hostport}
	r.reset(conn)
	return r, nil
}

// reset installs a fresh connection; callers hold r.mu (or own r solely).
func (r *Remote) reset(conn net.Conn) {
	r.conn = conn
	r.in = lineReader{br: bufio.NewReader(conn)}
	r.noBatch.Store(false) // whoever answers the new connection may know the op
}

// reconnect redials the server after a broken pipe; callers hold r.mu.
func (r *Remote) reconnect() error {
	if r.conn != nil {
		r.conn.Close()
		r.conn = nil
	}
	conn, err := net.DialTimeout("tcp", r.addr, dialTimeout)
	if err != nil {
		return fmt.Errorf("kdb: reconnect %s: %w", r.addr, err)
	}
	r.reset(conn)
	return nil
}

// wireError is an application-level error reported by the server (SQL
// errors, limit refusals). The request/response exchange completed, so the
// connection itself is still healthy and must not be torn down or retried.
type wireError struct{ msg string }

func (e wireError) Error() string { return e.msg }

// roundTrip sends req — with args as its arguments when it is an exec or
// query — and returns the response; a query's rows come back beside it as
// engine values, or in resp.Rows when the structs had to decode them.
func (r *Remote) roundTrip(req wireRequest, args []any, idempotent bool) (wireResponse, [][]any, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var err error
	if r.out, err = appendRequest(r.out[:0], &req, args); err != nil {
		return wireResponse{}, nil, err // an argument the wire cannot carry; nothing was sent
	}
	defer func() { r.out = keepScratch(r.out) }()
	return r.exchange(r.out, idempotent)
}

// exchange sends one request line and returns its answer; callers hold r.mu.
func (r *Remote) exchange(line []byte, idempotent bool) (wireResponse, [][]any, error) {
	if r.closed {
		return wireResponse{}, nil, fmt.Errorf("kdb: remote connection closed")
	}
	if r.conn == nil {
		// A previous request broke the connection; restore it now.
		if err := r.reconnect(); err != nil {
			return wireResponse{}, nil, err
		}
	}
	resp, rows, err := r.try(line)
	if err == nil {
		r.noteLSN(resp.LSN)
		return resp, rows, nil
	}
	var we wireError
	if errors.As(err, &we) {
		return wireResponse{}, nil, err // the server answered; keep the connection
	}
	// Transport failure: drop the connection. Idempotent requests retry
	// once on a fresh dial; mutations surface the error (retrying could
	// double-apply) and leave reconnection to the next request.
	r.conn.Close()
	r.conn = nil
	if !idempotent {
		return wireResponse{}, nil, err
	}
	if rerr := r.reconnect(); rerr != nil {
		return wireResponse{}, nil, err
	}
	resp, rows, err = r.try(line)
	if err == nil {
		r.noteLSN(resp.LSN)
	}
	return resp, rows, err
}

// try sends the request line and reads one response on the current
// connection; callers hold r.mu.
func (r *Remote) try(line []byte) (wireResponse, [][]any, error) {
	if _, err := r.conn.Write(line); err != nil {
		return wireResponse{}, nil, fmt.Errorf("kdb: send: %w", err)
	}
	line, err := r.in.next()
	if err != nil {
		return wireResponse{}, nil, fmt.Errorf("kdb: receive: %w", err)
	}
	resp, rows, ok := scanStatementResponse(line)
	if !ok {
		// An error, a cold verb's answer, or a peer that spells its
		// responses differently.
		resp, rows = wireResponse{}, nil
		if err := json.Unmarshal(line, &resp); err != nil {
			return wireResponse{}, nil, fmt.Errorf("kdb: receive: %w", err)
		}
	}
	if resp.Err != "" {
		return wireResponse{}, nil, wireError{resp.Err}
	}
	return resp, rows, nil
}

// Exec implements Conn.
func (r *Remote) Exec(query string, args ...any) (Result, error) {
	return r.ExecTraced(telemetry.TraceContext{}, query, args...)
}

// ExecTraced implements Conn: the mutation is sent with the trace
// context on the wire, and the client-side round trip becomes an "rpc.exec"
// span.
func (r *Remote) ExecTraced(tc telemetry.TraceContext, query string, args ...any) (Result, error) {
	hop := telemetry.StartHop(tc, "rpc.exec")
	hop.SetSQL(query)
	hop.Attr("addr", r.addr)
	wtc := hop.Context()
	resp, _, err := r.roundTrip(wireRequest{Op: "exec", SQL: query, TraceID: wtc.TraceID, SpanID: wtc.SpanID}, args, false)
	if err != nil {
		hop.Fail(err)
		return Result{}, err
	}
	hop.AttrInt("rows_affected", int64(resp.RowsAffected))
	hop.End()
	return Result{LastInsertID: resp.LastInsertID, RowsAffected: resp.RowsAffected, LSN: resp.LSN}, nil
}

// Query implements Conn.
func (r *Remote) Query(query string, args ...any) (*Rows, error) {
	return r.QueryTraced(telemetry.TraceContext{}, query, args...)
}

// QueryTraced implements Conn; see ExecTraced.
func (r *Remote) QueryTraced(tc telemetry.TraceContext, query string, args ...any) (*Rows, error) {
	hop := telemetry.StartHop(tc, "rpc.query")
	hop.SetSQL(query)
	hop.Attr("addr", r.addr)
	wtc := hop.Context()
	resp, cells, err := r.roundTrip(wireRequest{Op: "query", SQL: query, TraceID: wtc.TraceID, SpanID: wtc.SpanID}, args, true)
	if err != nil {
		hop.Fail(err)
		return nil, err
	}
	rows := &Rows{Columns: resp.Columns, rows: cells}
	for _, wr := range resp.Rows { // only a response the structs decoded has these
		vals, err := decodeArgs(wr)
		if err != nil {
			hop.Fail(err)
			return nil, err
		}
		rows.rows = append(rows.rows, vals)
	}
	hop.AttrInt("rows", int64(rows.Len()))
	hop.End()
	return rows, nil
}

// QueryRow implements Conn; it returns ErrNoRows when the query matches
// nothing.
func (r *Remote) QueryRow(query string, args ...any) ([]any, error) {
	return FirstRow(r.Query(query, args...))
}

// Tables implements Conn.
func (r *Remote) Tables() []string {
	resp, _, err := r.roundTrip(wireRequest{Op: "tables"}, nil, true)
	if err != nil {
		return nil
	}
	return resp.Tables
}

// Close implements Conn.
func (r *Remote) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	if r.conn == nil {
		return nil
	}
	err := r.conn.Close()
	r.conn = nil
	return err
}
