package repl

import (
	"io"
	"strconv"
	"sync/atomic"

	"repro/internal/kdb"
	"repro/internal/telemetry"
)

// Replica is a read target the Router can route queries to: a served
// replica (*kdb.Remote), or anything else that answers reads and reports its
// applied LSN. Reads — single statements and whole read steps — carry the
// request's trace context (empty when untraced) so replica-side spans join
// it; Status is the staleness probe.
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

// Router is a kdb.Conn that sends writes to the primary and reads to
// replicas, with read-your-writes consistency: its reads stick to the
// primary until some replica has applied its last write. Replica staleness
// is judged against a cached last-known LSN, refreshed by a cheap "status"
// probe only when the cache is insufficient — a Router that never writes
// never probes.
//
// A Router is one session: every write through it gates every read through
// it, the conservative choice for a store shared by a process's callers.
type Router struct {
	primary   kdb.Conn
	replicas  []*replicaState
	rr        atomic.Uint64
	lastWrite atomic.Int64

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
	return rt
}

// Primary is the connection writes go to: the api's change feed streams
// from it, and a read that must not lag goes to it directly.
func (rt *Router) Primary() kdb.Conn { return rt.primary }

// LSN reports the highest write LSN observed through the Router (campaign
// ingest records it as the run's final LSN).
func (rt *Router) LSN() int64 { return rt.lastWrite.Load() }

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

func (rt *Router) noteWrite(lsn int64) {
	for {
		cur := rt.lastWrite.Load()
		if lsn <= cur || rt.lastWrite.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// Exec sends the mutation to the primary and remembers its LSN.
func (rt *Router) Exec(query string, args ...any) (kdb.Result, error) {
	return rt.ExecTraced(telemetry.TraceContext{}, query, args...)
}

// ExecTraced implements kdb.Conn: writes always target the primary,
// recorded as a "router.exec" span.
func (rt *Router) ExecTraced(tc telemetry.TraceContext, query string, args ...any) (kdb.Result, error) {
	hop := telemetry.StartHop(tc, "router.exec")
	hop.SetSQL(query)
	hop.Attr("target", "primary")
	res, err := rt.primary.ExecTraced(hop.Context(), query, args...)
	if err != nil {
		hop.Fail(err)
		return res, err
	}
	rt.noteWrite(res.LSN)
	hop.AttrInt("rows_affected", int64(res.RowsAffected))
	hop.End()
	return res, nil
}

// eachFresh offers sufficiently fresh replicas to fn in round-robin order
// until fn reports success, and returns whether any attempt succeeded.
// Freshness is judged against the cached last-known LSN; the status probe
// only fires when the cache is insufficient, so a Router that never writes
// never probes. A replica whose probe or read fails has its cached LSN
// invalidated (a dead replica's stale cache would otherwise keep
// qualifying forever) and the remaining fresh replicas are tried before
// the caller falls back to the primary.
func (rt *Router) eachFresh(fn func(int, Replica) bool) bool {
	n := len(rt.replicas)
	if n == 0 {
		return false
	}
	need := rt.lastWrite.Load()
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
func (rt *Router) Query(query string, args ...any) (*kdb.Rows, error) {
	return rt.QueryTraced(telemetry.TraceContext{}, query, args...)
}

// QueryTraced implements kdb.Conn: the routing decision becomes a
// "router.query" span annotated with the target chosen (replica index or
// primary fallback), and the chosen backend's own spans nest under it.
func (rt *Router) QueryTraced(tc telemetry.TraceContext, query string, args ...any) (*kdb.Rows, error) {
	hop := telemetry.StartHop(tc, "router.query")
	hop.SetSQL(query)
	var rows *kdb.Rows
	err := rt.read(hop, func(n reader) (int, error) {
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
func (rt *Router) QueryBatch(tc telemetry.TraceContext, stmts []kdb.Stmt) ([]*kdb.Rows, error) {
	hop := telemetry.StartHop(tc, "router.read")
	hop.AttrInt("statements", int64(len(stmts)))
	var out []*kdb.Rows
	err := rt.read(hop, func(n reader) (rows int, err error) {
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
func (rt *Router) read(hop *telemetry.Hop, do func(reader) (rows int, err error)) error {
	chosen, rows := -1, 0
	if rt.eachFresh(func(idx int, rep Replica) bool {
		n, err := do(rep)
		if err != nil {
			return false
		}
		rows, chosen = n, idx
		return true
	}) {
		rt.replicaReads.Add(1)
		metRouterReplica.Inc()
		hop.Attr("target", "replica "+strconv.Itoa(chosen))
		hop.AttrInt("rows", int64(rows))
		hop.End()
		return nil
	}
	rt.primaryReads.Add(1)
	metRouterPrimary.Inc()
	hop.Attr("target", "primary")
	rows, err := do(rt.primary)
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
func (rt *Router) QueryRow(query string, args ...any) ([]any, error) {
	return kdb.FirstRow(rt.Query(query, args...))
}

func (rt *Router) Tables() []string { return rt.primary.Tables() }

// Batch applies fn on the primary through kdb.Batch — one write step on an
// embedded primary, one request to a served one — and notes the batch's last
// LSN so read-your-writes covers batched ingest. An embedded primary's execs
// report their LSNs as they go; a wire primary's are placeholders until the
// batch is answered, so then the connection's own position — which that
// answer advanced — is what later reads must wait for.
func (rt *Router) Batch(fn func(exec kdb.ExecFunc) error) error {
	var last int64
	err := kdb.Batch(rt.primary, func(exec kdb.ExecFunc) error {
		return fn(func(query string, args ...any) (kdb.Result, error) {
			res, err := exec(query, args...)
			if err == nil && res.LSN > last {
				last = res.LSN
			}
			return res, err
		})
	})
	if last == 0 {
		last = rt.primary.LSN()
	}
	rt.noteWrite(last)
	return err
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
)
