package repl

import (
	"io"
	"strconv"
	"sync/atomic"

	"repro/internal/kdb"
	"repro/internal/telemetry"
)

// Replica is a read target the Router can route queries to: a remote
// served replica (*kdb.Remote) or an in-process *Follower's database
// wrapped by LocalReplica. Reads — single statements and whole read steps —
// carry the request's trace context (empty when untraced) so replica-side
// spans join it; Status is the staleness probe.
type Replica interface {
	reader
	Status() (kdb.NodeStatus, error)
}

// reader is what a read needs of the node that answers it: a replica, or the
// primary, whose kdb.Conn has both methods too.
type reader interface {
	QueryTraced(tc telemetry.TraceContext, query string, args ...any) (*kdb.Rows, error)
	QueryBatch(tc telemetry.TraceContext, stmts []kdb.Stmt) ([]*kdb.Rows, error)
}

var _ Replica = (*kdb.Remote)(nil)

// LocalReplica adapts an in-process Follower into a Replica, so a node
// can serve its own follower copy without a network hop.
type LocalReplica struct{ F *Follower }

func (l LocalReplica) QueryTraced(tc telemetry.TraceContext, query string, args ...any) (*kdb.Rows, error) {
	return l.F.db.QueryTraced(tc, query, args...)
}

func (l LocalReplica) QueryBatch(tc telemetry.TraceContext, stmts []kdb.Stmt) ([]*kdb.Rows, error) {
	return l.F.db.QueryBatch(tc, stmts)
}

func (l LocalReplica) Status() (kdb.NodeStatus, error) { return l.F.Status() }

// Router is a kdb.Conn that sends writes to the primary and reads to
// replicas, with read-your-writes consistency: a session's reads stick to
// the primary until some replica has applied that session's last write.
// Replica staleness is judged against a cached last-known LSN, refreshed
// by a cheap "status" probe only when the cache is insufficient — a
// session that never writes never probes.
//
// The Router itself implements kdb.Conn as one shared session, which is
// the conservative default (all writes through the Router gate all reads
// through the Router). Callers wanting finer-grained stickiness create
// per-user sessions with Session().
type Router struct {
	primary  kdb.Conn
	replicas []*replicaState
	rr       atomic.Uint64
	def      Session

	primaryReads atomic.Int64
	replicaReads atomic.Int64
}

type replicaState struct {
	r        Replica
	knownLSN atomic.Int64
}

// NewRouter fronts primary with the given read replicas. With no
// replicas every call goes to the primary, so the Router is a safe
// drop-in even for single-node deployments.
func NewRouter(primary kdb.Conn, replicas ...Replica) *Router {
	rt := &Router{primary: primary}
	for _, r := range replicas {
		rt.replicas = append(rt.replicas, &replicaState{r: r})
	}
	rt.def.rt = rt
	return rt
}

// Primary is the connection writes go to: the api's change feed streams
// from it, and a read that must not lag goes to it directly.
func (rt *Router) Primary() kdb.Conn { return rt.primary }

// Session returns an independent routing session whose reads are gated
// only by its own writes.
func (rt *Router) Session() *Session { return &Session{rt: rt} }

// LSN reports the highest write LSN observed through the Router's shared
// session (campaign ingest records it as the run's final LSN).
func (rt *Router) LSN() int64 { return rt.def.lastWrite.Load() }

// ProbePrimaryLSN reports the primary's committed position: a status round
// trip when the primary connection supports one (remote clients do; the
// probe also advances their passive high-water mark), else the primary
// connection's own view, or the router's last-write LSN when that is
// ahead. Unlike LSN it observes commits made by other processes, and it
// never probes replicas.
func (rt *Router) ProbePrimaryLSN() int64 {
	lsn := max(rt.LSN(), rt.primary.LSN())
	if s, ok := rt.primary.(interface {
		Status() (kdb.NodeStatus, error)
	}); ok {
		if st, err := s.Status(); err == nil && st.LSN > lsn {
			lsn = st.LSN
		}
	}
	return lsn
}

// Stats reports how many reads went to the primary vs replicas.
func (rt *Router) Stats() (primary, replica int64) {
	return rt.primaryReads.Load(), rt.replicaReads.Load()
}

func (rt *Router) Exec(query string, args ...any) (kdb.Result, error) {
	return rt.def.Exec(query, args...)
}

func (rt *Router) ExecTraced(tc telemetry.TraceContext, query string, args ...any) (kdb.Result, error) {
	return rt.def.ExecTraced(tc, query, args...)
}

func (rt *Router) Query(query string, args ...any) (*kdb.Rows, error) {
	return rt.def.Query(query, args...)
}

func (rt *Router) QueryTraced(tc telemetry.TraceContext, query string, args ...any) (*kdb.Rows, error) {
	return rt.def.QueryTraced(tc, query, args...)
}

func (rt *Router) QueryRow(query string, args ...any) ([]any, error) {
	return rt.def.QueryRow(query, args...)
}

func (rt *Router) QueryBatch(tc telemetry.TraceContext, stmts []kdb.Stmt) ([]*kdb.Rows, error) {
	return rt.def.QueryBatch(tc, stmts)
}

func (rt *Router) Tables() []string { return rt.primary.Tables() }

// Batch applies fn on the primary through kdb.Batch — one write step on an
// embedded primary, one request to a served one — and notes the batch's last
// LSN so read-your-writes covers batched ingest.
func (rt *Router) Batch(fn func(exec kdb.ExecFunc) error) error {
	return rt.def.Batch(fn)
}

// Close closes the primary connection and any replicas that hold
// resources.
func (rt *Router) Close() error {
	err := rt.primary.Close()
	for _, rs := range rt.replicas {
		if c, ok := rs.r.(io.Closer); ok {
			if cerr := c.Close(); err == nil {
				err = cerr
			}
		}
	}
	return err
}

var (
	_ kdb.Conn    = (*Router)(nil)
	_ kdb.Batcher = (*Router)(nil)
	_ kdb.Conn    = (*Session)(nil)
	_ Replica     = LocalReplica{}
)

// Session tracks one logical client's last write so its reads are never
// served from a replica that has not applied it.
type Session struct {
	rt        *Router
	lastWrite atomic.Int64
}

// LSN reports the session's last write LSN.
func (s *Session) LSN() int64 { return s.lastWrite.Load() }

func (s *Session) noteWrite(lsn int64) {
	for {
		cur := s.lastWrite.Load()
		if lsn <= cur || s.lastWrite.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// Exec sends the mutation to the primary and remembers its LSN.
func (s *Session) Exec(query string, args ...any) (kdb.Result, error) {
	return s.ExecTraced(telemetry.TraceContext{}, query, args...)
}

// ExecTraced implements kdb.Conn: writes always target the primary,
// recorded as a "router.exec" span.
func (s *Session) ExecTraced(tc telemetry.TraceContext, query string, args ...any) (kdb.Result, error) {
	hop := telemetry.StartHop(tc, "router.exec")
	hop.SetSQL(query)
	hop.Attr("target", "primary")
	res, err := s.rt.primary.ExecTraced(hop.Context(), query, args...)
	if err != nil {
		hop.Fail(err)
		return res, err
	}
	s.noteWrite(res.LSN)
	hop.AttrInt("rows_affected", int64(res.RowsAffected))
	hop.End()
	return res, nil
}

// eachFresh offers sufficiently fresh replicas to fn in round-robin order
// until fn reports success, and returns whether any attempt succeeded.
// Freshness is judged against the cached last-known LSN; the status probe
// only fires when the cache is insufficient, so a session that never
// writes never probes. A replica whose probe or read fails has its cached
// LSN invalidated (a dead replica's stale cache would otherwise keep
// qualifying forever) and the remaining fresh replicas are tried before
// the caller falls back to the primary.
func (s *Session) eachFresh(fn func(int, Replica) bool) bool {
	rt := s.rt
	n := len(rt.replicas)
	if n == 0 {
		return false
	}
	need := s.lastWrite.Load()
	start := rt.rr.Add(1)
	for i := 0; i < n; i++ {
		idx := int((start + uint64(i)) % uint64(n))
		rs := rt.replicas[idx]
		if rs.knownLSN.Load() < need {
			st, err := rs.r.Status()
			if err != nil {
				rs.knownLSN.Store(-1)
				continue
			}
			rs.knownLSN.Store(st.LSN)
			if st.LSN < need {
				continue
			}
		}
		if fn(idx, rs.r) {
			return true
		}
		rs.knownLSN.Store(-1)
	}
	return false
}

// Query routes to a sufficiently fresh replica, trying the others when one
// fails, and falls back to the primary only when no replica qualifies or
// every fresh one errored.
func (s *Session) Query(query string, args ...any) (*kdb.Rows, error) {
	return s.QueryTraced(telemetry.TraceContext{}, query, args...)
}

// QueryTraced implements kdb.Conn: the routing decision becomes a
// "router.query" span annotated with the target chosen (replica index or
// primary fallback), and the chosen backend's own spans nest under it.
func (s *Session) QueryTraced(tc telemetry.TraceContext, query string, args ...any) (*kdb.Rows, error) {
	hop := telemetry.StartHop(tc, "router.query")
	hop.SetSQL(query)
	var rows *kdb.Rows
	err := s.read(hop, func(n reader) (int, error) {
		var err error
		if rows, err = n.QueryTraced(hop.Context(), query, args...); err != nil {
			return 0, err
		}
		return rows.Len(), nil
	})
	return rows, err
}

// QueryBatch implements kdb.Conn: the whole read step goes to one node — a
// fresh replica, the next fresh one if that one fails, else the primary —
// so its statements never mix two nodes' states. It is one read in the
// Router's counts, and one "router.read" span.
func (s *Session) QueryBatch(tc telemetry.TraceContext, stmts []kdb.Stmt) ([]*kdb.Rows, error) {
	hop := telemetry.StartHop(tc, "router.read")
	hop.AttrInt("statements", int64(len(stmts)))
	var out []*kdb.Rows
	err := s.read(hop, func(n reader) (rows int, err error) {
		out, err = n.QueryBatch(hop.Context(), stmts)
		for _, r := range out {
			rows += r.Len()
		}
		return rows, err
	})
	return out, err
}

// read runs one read — a statement or a step — through do on a
// sufficiently fresh replica, trying the others when one fails, and on the
// primary only when no replica qualifies or every fresh one errored. It
// counts one read, and annotates hop with the target and the rows do
// reports.
func (s *Session) read(hop *telemetry.Hop, do func(reader) (rows int, err error)) error {
	chosen, rows := -1, 0
	if s.eachFresh(func(idx int, rep Replica) bool {
		n, err := do(rep)
		if err != nil {
			return false
		}
		rows, chosen = n, idx
		return true
	}) {
		s.rt.replicaReads.Add(1)
		metRouterReplica.Inc()
		hop.Attr("target", "replica "+strconv.Itoa(chosen))
		hop.AttrInt("rows", int64(rows))
		hop.End()
		return nil
	}
	s.rt.primaryReads.Add(1)
	metRouterPrimary.Inc()
	hop.Attr("target", "primary")
	rows, err := do(s.rt.primary)
	if err != nil {
		hop.Fail(err)
		return err
	}
	hop.AttrInt("rows", int64(rows))
	hop.End()
	return nil
}

// QueryRow is Query's first row. A replica's empty result is a real
// answer, not a failure: it yields ErrNoRows without failover or primary
// fallback.
func (s *Session) QueryRow(query string, args ...any) ([]any, error) {
	return kdb.FirstRow(s.Query(query, args...))
}

func (s *Session) Tables() []string { return s.rt.primary.Tables() }

// Close is a no-op: sessions borrow the Router's shared connections, and
// closing one session must not tear the Router down under its siblings.
// Router.Close is the single teardown path.
func (s *Session) Close() error { return nil }

// Batch applies fn on the primary (see Router.Batch). An embedded primary's
// execs report their LSNs as they go; a wire primary's are placeholders
// until the batch is answered, so then the connection's own position — which
// that answer advanced — is what the session must wait for.
func (s *Session) Batch(fn func(exec kdb.ExecFunc) error) error {
	var last int64
	err := kdb.Batch(s.rt.primary, func(exec kdb.ExecFunc) error {
		return fn(func(query string, args ...any) (kdb.Result, error) {
			res, err := exec(query, args...)
			if err == nil && res.LSN > last {
				last = res.LSN
			}
			return res, err
		})
	})
	if last == 0 {
		last = s.rt.primary.LSN()
	}
	s.noteWrite(last)
	return err
}
