package shard

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kdb"
	"repro/internal/telemetry"
)

// Coordinator fronts a fixed set of shard connections as one kdb.Conn.
// Each connection may be anything that satisfies the interface — an
// in-process *kdb.DB in tests, a *kdb.Remote, or a repl.Router fronting a
// shard's primary and its read replicas — so replication composes under
// sharding rather than being re-implemented by it.
//
// The coordinator is stateless apart from a round-robin cursor: routing is
// a pure function of the statement and the shard count, which is what lets
// any number of coordinators front the same shard set.
type Coordinator struct {
	shards []kdb.Conn
	smap   *Map
	rr     atomic.Uint64
}

// New builds a coordinator over the given shard connections, in shard
// order (connection i owns hash residue i).
func New(shards ...kdb.Conn) (*Coordinator, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: coordinator needs at least one shard")
	}
	return &Coordinator{shards: shards}, nil
}

// ShardMap serves the partition map shard.Dial attached: the kdb.Server
// answers the "shardmap" verb with it, and the api's cache and
// Store.Status read its epoch. It is advisory metadata for clients, not a
// routing input.
func (c *Coordinator) ShardMap() (epoch int64, data []byte) {
	if c.smap == nil {
		return 0, nil
	}
	return c.smap.Epoch, c.smap.Marshal()
}

func (c *Coordinator) shardFor(key uint64) int { return int(key % uint64(len(c.shards))) }

// observe records one shard request's latency, tagging the series with the
// trace as its exemplar when the request was traced.
func observe(shard int, start time.Time, traceID string) {
	shardLatency(shard).ObserveEx(time.Since(start).Seconds(), traceID)
}

// Exec routes one mutation. DDL broadcasts to every shard so schemas stay
// identical; INSERT lands on the shard its leading value hashes to (or
// round-robin when the statement has no values); UPDATE and DELETE
// broadcast and report the summed affected-row count. The returned LSN is
// meaningful only relative to the shard that executed the write.
func (c *Coordinator) Exec(query string, args ...any) (kdb.Result, error) {
	return c.ExecTraced(telemetry.TraceContext{}, query, args...)
}

// ExecTraced implements kdb.Conn: the routing decision becomes a
// "coordinator.exec" span with a child span per shard touched.
func (c *Coordinator) ExecTraced(tc telemetry.TraceContext, query string, args ...any) (kdb.Result, error) {
	class, _, err := kdb.Classify(query)
	if err != nil {
		return kdb.Result{}, err
	}
	hop := telemetry.StartHop(tc, "coordinator.exec")
	hop.SetSQL(query)
	switch class {
	case kdb.StmtDDL:
		res, err := c.broadcast(hop.Context(), query, args, false)
		finishExec(hop, res, err)
		return res, err
	case kdb.StmtInsert:
		idx, err := c.routeInsert(query, args)
		if err != nil {
			hop.Fail(err)
			return kdb.Result{}, err
		}
		hop.AttrInt("shard", int64(idx))
		child := telemetry.StartHop(hop.Context(), fmt.Sprintf("shard %d", idx))
		start := time.Now()
		res, err := c.shards[idx].ExecTraced(child.Context(), query, args...)
		observe(idx, start, child.TraceID())
		if err != nil {
			child.Fail(err)
		} else {
			metIngest.Inc()
			child.AttrInt("rows_affected", int64(res.RowsAffected))
			child.End()
		}
		finishExec(hop, res, err)
		return res, err
	case kdb.StmtUpdate, kdb.StmtDelete:
		res, err := c.broadcast(hop.Context(), query, args, true)
		finishExec(hop, res, err)
		return res, err
	case kdb.StmtSelect:
		err := fmt.Errorf("shard: use Query for SELECT")
		hop.Fail(err)
		return kdb.Result{}, err
	}
	err = fmt.Errorf("shard: unsupported statement")
	hop.Fail(err)
	return kdb.Result{}, err
}

// finishExec closes a coordinator exec span with its outcome.
func finishExec(hop *telemetry.Hop, res kdb.Result, err error) {
	if err != nil {
		hop.Fail(err)
		return
	}
	hop.AttrInt("rows_affected", int64(res.RowsAffected))
	hop.End()
}

// routeInsert picks the owning shard for an INSERT: hash of the first
// value when one exists and is non-NULL, round-robin otherwise.
func (c *Coordinator) routeInsert(query string, args []any) (int, error) {
	v, ok, err := kdb.FirstInsertValue(query, args)
	if err != nil {
		return 0, err
	}
	if !ok || v == nil {
		return c.shardFor(c.rr.Add(1)), nil
	}
	return c.shardFor(HashValue(v)), nil
}

// broadcast runs the statement on every shard. With sum set the results'
// affected-row counts are added (UPDATE/DELETE semantics); otherwise the
// first shard's result is returned (DDL, where all results are equal).
// Shards run concurrently; their errors are joined (joinDistinct) so a
// partial failure is visible rather than masked by a later success.
func (c *Coordinator) broadcast(tc telemetry.TraceContext, query string, args []any, sum bool) (kdb.Result, error) {
	results := make([]kdb.Result, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i := range c.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			child := telemetry.StartHop(tc, fmt.Sprintf("shard %d", i))
			start := time.Now()
			results[i], errs[i] = c.shards[i].ExecTraced(child.Context(), query, args...)
			observe(i, start, child.TraceID())
			if errs[i] != nil {
				child.Fail(errs[i])
			} else {
				child.AttrInt("rows_affected", int64(results[i].RowsAffected))
				child.End()
			}
		}(i)
	}
	wg.Wait()
	if err := joinDistinct(errs); err != nil {
		return kdb.Result{}, err
	}
	out := results[0]
	if sum {
		out = kdb.Result{}
		for _, r := range results {
			out.RowsAffected += r.RowsAffected
		}
	}
	return out, nil
}

// joinDistinct joins the shards' errors, each distinct message once: a
// statement every shard refuses alike reads as one error, and shards that
// fail differently all show.
func joinDistinct(errs []error) error {
	var out []error
	for _, err := range errs {
		if err != nil && !slices.ContainsFunc(out, func(e error) bool { return e.Error() == err.Error() }) {
			out = append(out, err)
		}
	}
	return errors.Join(out...)
}

// Query scatters a SELECT to every shard and gathers the per-shard
// streams through the merge layer, which reapplies ORDER BY, LIMIT,
// DISTINCT, and recombines decomposed aggregates with the engine's own
// comparison and grouping semantics.
func (c *Coordinator) Query(query string, args ...any) (*kdb.Rows, error) {
	return c.QueryTraced(telemetry.TraceContext{}, query, args...)
}

// QueryTraced implements kdb.Conn: the scatter-gather becomes a
// "coordinator.scatter" span with one "shard i" child per fan-out leg
// (each annotated with the rows that leg returned), so a cross-shard query
// reads as one tree from coordinator to every replica that served it.
func (c *Coordinator) QueryTraced(tc telemetry.TraceContext, query string, args ...any) (*kdb.Rows, error) {
	plan, err := kdb.PlanScatter(query)
	if err != nil {
		return nil, err
	}
	hop := telemetry.StartHop(tc, "coordinator.scatter")
	hop.SetSQL(query)
	hop.AttrInt("fanout", int64(len(c.shards)))
	parts := make([]*kdb.Rows, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i := range c.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			child := telemetry.StartHop(hop.Context(), fmt.Sprintf("shard %d", i))
			start := time.Now()
			parts[i], errs[i] = c.shards[i].QueryTraced(child.Context(), plan.ShardSQL, args...)
			observe(i, start, child.TraceID())
			if errs[i] != nil {
				child.Fail(errs[i])
			} else {
				child.AttrInt("rows", int64(parts[i].Len()))
				child.End()
			}
		}(i)
	}
	wg.Wait()
	if err := joinDistinct(errs); err != nil {
		hop.Fail(err)
		return nil, err
	}
	metFanout.Observe(float64(len(c.shards)))
	out, err := mergeRows(plan, parts)
	if err != nil {
		hop.Fail(err)
		return nil, err
	}
	metMergeRows.Add(int64(out.Len()))
	hop.AttrInt("rows", int64(out.Len()))
	hop.End()
	return out, nil
}

// QueryBatch implements kdb.Conn: each statement of the step is its own
// scatter-gather through QueryTraced, in order, up to the first that fails;
// the rows of the statements before it come back with the error.
func (c *Coordinator) QueryBatch(tc telemetry.TraceContext, stmts []kdb.Stmt) ([]*kdb.Rows, error) {
	out := make([]*kdb.Rows, 0, len(stmts))
	for _, st := range stmts {
		rows, err := c.QueryTraced(tc, st.SQL, st.Args...)
		if err != nil {
			return out, err
		}
		out = append(out, rows)
	}
	return out, nil
}

// QueryRow runs Query and returns the first merged row, with the engine's
// ErrNoRows contract.
func (c *Coordinator) QueryRow(query string, args ...any) ([]any, error) {
	return kdb.FirstRow(c.Query(query, args...))
}

// Tables reports the schema from the first shard; DDL broadcast keeps all
// shards identical.
func (c *Coordinator) Tables() []string { return c.shards[0].Tables() }

// LSN reports the maximum commit LSN across shards — a coarse liveness
// figure for the "status" wire verb, not a global ordering (each shard's
// sequence is independent).
func (c *Coordinator) LSN() int64 {
	var max int64
	for _, s := range c.shards {
		if v := s.LSN(); v > max {
			max = v
		}
	}
	return max
}

// Close closes every shard connection, joining errors.
func (c *Coordinator) Close() error {
	errs := make([]error, 0, len(c.shards))
	for _, s := range c.shards {
		errs = append(errs, s.Close())
	}
	return errors.Join(errs...)
}

// Batch pins the whole batch to one shard (round-robin), so multi-table
// object graphs threaded by Result.Ref stay colocated. The shard takes it
// through kdb.Batch, all or nothing: a write step on an embedded shard, one
// request to a served one.
func (c *Coordinator) Batch(fn func(exec kdb.ExecFunc) error) error {
	return c.batchOn(c.shardFor(c.rr.Add(1)), fn)
}

// BatchKeyed pins the batch to the shard the placement key hashes to, so
// every batch sharing a key (all units of one campaign, say) lands
// together.
func (c *Coordinator) BatchKeyed(key uint64, fn func(exec kdb.ExecFunc) error) error {
	return c.batchOn(c.shardFor(key), fn)
}

func (c *Coordinator) batchOn(idx int, fn func(exec kdb.ExecFunc) error) error {
	start := time.Now()
	defer observe(idx, start, "")
	return kdb.Batch(c.shards[idx], func(exec kdb.ExecFunc) error {
		return fn(func(query string, args ...any) (kdb.Result, error) {
			res, err := exec(query, args...)
			if err == nil {
				metIngest.Inc()
			}
			return res, err
		})
	})
}

var (
	_ kdb.Conn         = (*Coordinator)(nil)
	_ kdb.Batcher      = (*Coordinator)(nil)
	_ kdb.KeyedBatcher = (*Coordinator)(nil)
)
