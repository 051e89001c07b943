package kdb

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/telemetry"
)

// The "batch" verb: a unit of work is one round trip. A save threads ids —
// a summary row needs the id of the performance row inserted two statements
// earlier — so N statements in one request are only a unit if a later
// statement can name an earlier one's id before anybody knows it. That name
// is a Ref: on the wire the cell {"k":"ref","v":"i"}, "the last_id of
// statement i of this batch". The server turns each into the Ref of the
// result it got for statement i and passes it on as an ordinary argument, so
// whatever runs the batch resolves it the way it resolves any Ref: an
// embedded database at once, to the integer that is staged and logged (its
// records, frames and LSNs are byte for byte those of N separate execs), a
// coordinator's wire shard by sending it on as a reference of its own batch.

// Ref names the id a statement inserted: Result.Ref(). It can be passed as a
// statement argument wherever that id is wanted, and read with ID once the
// statement's outcome is known — at once for a statement an embedded
// database or a single exec ran, after Batch returns for one a wire batch
// recorded. The zero Ref names nothing and is refused as an argument.
type Ref struct {
	rec  *recording // the wire batch whose answer holds the id; nil when id is already it
	stmt int
	id   int64
}

// Ref returns the reference to the id this statement inserted.
func (r Result) Ref() Ref {
	if r.rec != nil {
		return Ref{rec: r.rec, stmt: r.stmt}
	}
	return Ref{id: r.LastInsertID}
}

// ID returns the id, or 0 while the batch that will say it is unanswered
// (and for a statement that inserted nothing).
func (r Ref) ID() int64 {
	if r.rec == nil {
		return r.id
	}
	if r.stmt < len(r.rec.ids) {
		return r.rec.ids[r.stmt]
	}
	return 0
}

// value is the Ref as a statement argument.
func (r Ref) value() (any, error) {
	if r.rec != nil && r.rec.ids == nil {
		return nil, errors.New("kdb: reference into a batch that has not been answered (another batch's, or a failed one's)")
	}
	id := r.ID()
	if id == 0 {
		return nil, errors.New("kdb: reference to a statement that inserted nothing")
	}
	return id, nil
}

// refArg is a back-reference as decoded from a batch request: the index of
// the statement whose id is wanted.
type refArg int64

// batchStmt is one decoded statement of a batch; args may hold refArgs.
type batchStmt struct {
	sql  string
	args []any
}

// decodeStmts converts the statements of a batch request the structs decoded
// into engine values, as scanBatchRequest does for one the scanner read.
func decodeStmts(in []wireStmt) ([]batchStmt, error) {
	out := make([]batchStmt, len(in))
	for j, st := range in {
		out[j] = batchStmt{st.SQL, make([]any, len(st.Args))}
		for k, a := range st.Args {
			var err error
			if a.Kind != "ref" {
				out[j].args[k], err = decodeArg(a)
			} else if n, perr := strconv.ParseInt(a.Value, 10, 64); perr != nil {
				err = fmt.Errorf("kdb: corrupt batch reference %q", a.Value)
			} else {
				out[j].args[k] = refArg(n)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// checkRefs refuses a batch in which some statement refers to anything but
// an earlier statement of the same batch: itself, a later one, an index
// outside the batch.
func checkRefs(stmts []batchStmt) error {
	for j, st := range stmts {
		for _, a := range st.args {
			if r, ok := a.(refArg); ok && (r < 0 || int64(r) >= int64(j)) {
				return fmt.Errorf("kdb: batch statement %d refers to statement %d: only an earlier statement of the same batch can be referenced", j, r)
			}
		}
	}
	return nil
}

// runStmts runs a batch's statements in order through exec, putting in place
// of each back-reference what the statement it names gave: the id itself when
// exec ran that statement (an embedded database, a single exec — so what is
// staged and logged never held anything but the integer), its Ref when exec
// only recorded it for a server of its own. It returns every statement's Ref
// and the highest LSN exec reported (0 from a recorder). stmts must have
// passed checkRefs.
func runStmts(stmts []batchStmt, exec ExecFunc) (refs []Ref, lsn int64, err error) {
	refs = make([]Ref, len(stmts))
	vals := make([]any, len(stmts)) // refs as arguments, boxed once however often referred to
	for j, st := range stmts {
		for k, a := range st.args {
			r, ok := a.(refArg)
			if !ok {
				continue
			}
			if vals[r] == nil {
				if vals[r] = refs[r]; refs[r].rec == nil {
					if vals[r], err = refs[r].value(); err != nil {
						return nil, 0, err
					}
				}
			}
			st.args[k] = vals[r]
		}
		res, err := exec(st.sql, st.args...)
		if err != nil {
			return nil, 0, err
		}
		refs[j] = res.Ref()
		if res.LSN > lsn {
			lsn = res.LSN
		}
	}
	return refs, lsn, nil
}

// batch answers the "batch" op: the statements go through Batch (BatchKeyed
// when the request carries a key) on the serving connection, so a database
// takes them as one write step — one append, one flush, all or none — and a
// coordinator routes them whole.
func (s *Server) batch(req *request) wireResponse {
	if s.ReadOnly {
		return wireResponse{Err: "kdb: read-only replica rejects mutations"}
	}
	stmts := req.stmts
	if err := checkRefs(stmts); err != nil {
		return wireResponse{Err: err.Error()}
	}
	hop := telemetry.StartHop(telemetry.TraceContext{TraceID: req.TraceID, SpanID: req.SpanID}, "server.batch")
	hop.SetNode(s.traceNode())
	hop.AttrInt("statements", int64(len(stmts)))
	var refs []Ref
	var lsn int64
	run := func(exec ExecFunc) (err error) {
		refs, lsn, err = runStmts(stmts, exec)
		return err
	}
	var err error
	if req.Key != nil {
		err = BatchKeyed(s.conn(), *req.Key, run)
	} else {
		err = Batch(s.conn(), run)
	}
	if err != nil {
		hop.Fail(err)
		return wireResponse{Err: err.Error()}
	}
	hop.End()
	if lsn == 0 {
		// The backend recorded the statements for a server of its own; its
		// high-water mark covers the answer it got.
		lsn = s.conn().LSN()
	}
	return wireResponse{IDs: refIDs(refs), LSN: lsn}
}

// refIDs reads out the ids of a batch's statements once it has run.
func refIDs(refs []Ref) []int64 {
	ids := make([]int64, len(refs))
	for i, r := range refs {
		ids[i] = r.ID()
	}
	return ids
}

// recording is a wire batch on the client: the request line as far as fn has
// got, then the server's answer.
type recording struct {
	line []byte
	n    int     // statements recorded
	done bool    // fn has returned: nothing more is recorded
	ids  []int64 // each statement's last_id, once answered
}

// exec is the ExecFunc a wire batch hands fn: it writes the statement into
// the request and returns a placeholder whose Ref names the statement. An
// argument the wire cannot carry, or a Ref that belongs to another unanswered
// batch, fails here, before anything is sent.
func (b *recording) exec(query string, args ...any) (Result, error) {
	if b.done {
		return Result{}, errors.New("kdb: exec on a batch that has already been sent")
	}
	mark := len(b.line)
	b.line = roomFor(b.line, query, args)
	if b.n > 0 {
		b.line = append(b.line, ',')
	}
	line, err := appendStmt(b.line, query, args, b)
	if err != nil {
		b.line = b.line[:mark]
		return Result{}, err
	}
	b.line = line
	b.n++
	return Result{rec: b, stmt: b.n - 1}, nil
}

// unknownBatchOp is how a server older than the verb answers it.
const unknownBatchOp = `kdb: unknown wire op "batch"`

// wireBatch implements wireBatcher: fn's statements are recorded, not run,
// and go out as one "batch" request that the server applies all or none; the
// ids come back in the answer, where the Refs fn kept find them. Against a
// server that does not know the op, the recording — not fn — is replayed one
// exec at a time with the references filled in from each answer, which is
// what every batch over the wire was before the verb.
func (r *Remote) wireBatch(key *uint64, fn func(exec ExecFunc) error) error {
	hop := telemetry.StartHop(telemetry.TraceContext{}, "rpc.batch")
	hop.Attr("addr", r.addr)
	r.mu.Lock()
	line := r.batch[:0]
	r.batch = nil // ours until the batch is over; a concurrent one starts its own
	r.mu.Unlock()
	b := &recording{line: appendBatchHead(line, key)}
	defer func() {
		// The Refs fn kept hold on to b for its ids, not for its line.
		r.mu.Lock()
		r.batch, b.line = keepScratch(b.line), nil
		r.mu.Unlock()
	}()
	err := fn(b.exec)
	b.done = true
	hop.AttrInt("statements", int64(b.n))
	if err == nil && b.n > 0 {
		tc := hop.Context()
		b.line = appendBatchTail(b.line, tc.TraceID, tc.SpanID)
		err = r.sendBatch(b, tc)
	}
	if err != nil {
		hop.Fail(err)
		return err
	}
	hop.End()
	return nil
}

// sendBatch sends b's finished line and takes the ids from the answer — or,
// on a connection whose server has no batch verb, replays it as execs under
// tc.
func (r *Remote) sendBatch(b *recording, tc telemetry.TraceContext) error {
	if !r.noBatch.Load() {
		r.mu.Lock()
		resp, _, err := r.exchange(b.line, false)
		r.mu.Unlock()
		var we wireError
		switch {
		case err == nil && len(resp.IDs) != b.n:
			return fmt.Errorf("kdb: batch of %d statements answered with %d ids", b.n, len(resp.IDs))
		case err == nil:
			b.ids = resp.IDs
			return nil
		case !errors.As(err, &we) || we.msg != unknownBatchOp:
			return err
		}
		r.noBatch.Store(true)
	}
	// Read the request back the way a server would, and be that server.
	line := b.line[:len(b.line)-1]
	_, stmts, ok := scanBatchRequest(line)
	if !ok {
		var req wireRequest
		err := json.Unmarshal(line, &req)
		if err == nil {
			stmts, err = decodeStmts(req.Stmts)
		}
		if err != nil {
			return fmt.Errorf("kdb: replay batch: %w", err)
		}
	}
	refs, _, err := runStmts(stmts, func(query string, args ...any) (Result, error) {
		return r.ExecTraced(tc, query, args...)
	})
	if err != nil {
		return err
	}
	b.ids = refIDs(refs)
	return nil
}
