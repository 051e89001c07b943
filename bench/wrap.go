package main

import (
	"net/http"
	"strconv"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/kdb"
	"repro/internal/repl"
	"repro/internal/telemetry"
)

// The wrappers below record a span around each layer's public entry points
// without editing the program. Each one embeds the concrete type the
// program would have been handed, so every method it does not override
// (LSN, CommitNotify, ProbePrimaryLSN, Status, Stats, Close, ...) is
// promoted and the interface assertions the program makes on the value —
// api's validity switch, schema's kdb.Batcher check, repl.Router's primary
// probes — resolve exactly as they do on the bare type.

// seam is what the wrappers share: where spans go, under which name, and
// an always-on tally of calls for the count metrics.
type seam struct {
	t     *tracer
	name  string
	calls atomic.Int64
}

// execSpan marks a span of a mutation in span.N, where a query's span
// carries the rows it returned.
const execSpan = -1

func (s *seam) query(fn func() (*kdb.Rows, error)) (*kdb.Rows, error) {
	s.calls.Add(1)
	start := s.t.begin()
	rows, err := fn()
	n := 0
	if rows != nil {
		n = rows.Len()
	}
	s.t.finish(s.name, start, 0, n)
	return rows, err
}

func (s *seam) queryRow(fn func() ([]any, error)) ([]any, error) {
	s.calls.Add(1)
	start := s.t.begin()
	row, err := fn()
	n := 0
	if err == nil {
		n = 1
	}
	s.t.finish(s.name, start, 0, n)
	return row, err
}

func (s *seam) exec(fn func() (kdb.Result, error)) (kdb.Result, error) {
	s.calls.Add(1)
	start := s.t.begin()
	res, err := fn()
	s.t.finish(s.name, start, 0, execSpan)
	return res, err
}

// tracedDB wraps an embedded database: as the connection handed to
// schema.Wrap (api_warm) or as kdb.Server.Backend with Server.DB still set,
// so replication verbs keep working (api_churn, ingest_served).
type tracedDB struct {
	*kdb.DB
	seam
}

func (d *tracedDB) Query(q string, a ...any) (*kdb.Rows, error) {
	return d.seam.query(func() (*kdb.Rows, error) { return d.DB.Query(q, a...) })
}
func (d *tracedDB) QueryTraced(tc telemetry.TraceContext, q string, a ...any) (*kdb.Rows, error) {
	return d.seam.query(func() (*kdb.Rows, error) { return d.DB.QueryTraced(tc, q, a...) })
}
func (d *tracedDB) QueryRow(q string, a ...any) ([]any, error) {
	return d.seam.queryRow(func() ([]any, error) { return d.DB.QueryRow(q, a...) })
}
func (d *tracedDB) Exec(q string, a ...any) (kdb.Result, error) {
	return d.seam.exec(func() (kdb.Result, error) { return d.DB.Exec(q, a...) })
}
func (d *tracedDB) ExecTraced(tc telemetry.TraceContext, q string, a ...any) (kdb.Result, error) {
	return d.seam.exec(func() (kdb.Result, error) { return d.DB.ExecTraced(tc, q, a...) })
}
func (d *tracedDB) Batch(fn func(kdb.ExecFunc) error) error {
	d.calls.Add(1)
	start := d.t.begin()
	err := d.DB.Batch(fn)
	d.t.finish(d.name, start, 0, 0)
	return err
}

// tracedRouter wraps the read router handed to schema.Wrap.
type tracedRouter struct {
	*repl.Router
	seam
}

func (r *tracedRouter) Query(q string, a ...any) (*kdb.Rows, error) {
	return r.seam.query(func() (*kdb.Rows, error) { return r.Router.Query(q, a...) })
}
func (r *tracedRouter) QueryTraced(tc telemetry.TraceContext, q string, a ...any) (*kdb.Rows, error) {
	return r.seam.query(func() (*kdb.Rows, error) { return r.Router.QueryTraced(tc, q, a...) })
}
func (r *tracedRouter) QueryRow(q string, a ...any) ([]any, error) {
	return r.seam.queryRow(func() ([]any, error) { return r.Router.QueryRow(q, a...) })
}
func (r *tracedRouter) Exec(q string, a ...any) (kdb.Result, error) {
	return r.seam.exec(func() (kdb.Result, error) { return r.Router.Exec(q, a...) })
}
func (r *tracedRouter) ExecTraced(tc telemetry.TraceContext, q string, a ...any) (kdb.Result, error) {
	return r.seam.exec(func() (kdb.Result, error) { return r.Router.ExecTraced(tc, q, a...) })
}
func (r *tracedRouter) Batch(fn func(kdb.ExecFunc) error) error {
	r.calls.Add(1)
	start := r.t.begin()
	err := r.Router.Batch(fn)
	r.t.finish(r.name, start, 0, 0)
	return err
}

// tracedRemote wraps a wire client: the primary and replica connections
// given to repl.NewRouter, or the connection handed to schema.Wrap on
// ingest_served. It has no Batch, like the bare *kdb.Remote, so schema
// falls back to one round trip per statement exactly as it does untraced.
// Status is left to the embedded client: the router's staleness probes and
// the api's 250 ms validity poll are round trips too, but the poll runs on
// its own goroutine and a span of it would break containment.
type tracedRemote struct {
	*kdb.Remote
	seam
}

func (r *tracedRemote) Query(q string, a ...any) (*kdb.Rows, error) {
	return r.seam.query(func() (*kdb.Rows, error) { return r.Remote.Query(q, a...) })
}
func (r *tracedRemote) QueryTraced(tc telemetry.TraceContext, q string, a ...any) (*kdb.Rows, error) {
	return r.seam.query(func() (*kdb.Rows, error) { return r.Remote.QueryTraced(tc, q, a...) })
}
func (r *tracedRemote) QueryRow(q string, a ...any) ([]any, error) {
	return r.seam.queryRow(func() ([]any, error) { return r.Remote.QueryRow(q, a...) })
}
func (r *tracedRemote) Exec(q string, a ...any) (kdb.Result, error) {
	return r.seam.exec(func() (kdb.Result, error) { return r.Remote.Exec(q, a...) })
}
func (r *tracedRemote) ExecTraced(tc telemetry.TraceContext, q string, a ...any) (kdb.Result, error) {
	return r.seam.exec(func() (kdb.Result, error) { return r.Remote.ExecTraced(tc, q, a...) })
}

var (
	_ kdb.Conn       = (*tracedDB)(nil)
	_ kdb.TracedConn = (*tracedDB)(nil)
	_ kdb.Batcher    = (*tracedDB)(nil)
	_ kdb.Conn       = (*tracedRouter)(nil)
	_ kdb.TracedConn = (*tracedRouter)(nil)
	_ kdb.Batcher    = (*tracedRouter)(nil)
	_ kdb.Conn       = (*tracedRemote)(nil)
	_ kdb.TracedConn = (*tracedRemote)(nil)
	_ repl.Replica   = (*tracedRemote)(nil)
)

// tracedGen times one generator of a campaign spec.
type tracedGen struct {
	core.Generator
	t *tracer
}

func (g tracedGen) Generate(ctx *core.Context) ([]core.Artifact, error) {
	start := g.t.begin()
	arts, err := g.Generator.Generate(ctx)
	g.t.finish(spGen, start, 0, 0)
	return arts, err
}

// spanHeader carries the client span's request id to the handler wrapper.
const spanHeader = "X-Bench-Request"

// traceHandler records the serve span around the api.Server.
func traceHandler(t *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.begin()
		h.ServeHTTP(w, r)
		if start >= 0 {
			req, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
			t.finish(spServe, start, req, 0)
		}
	})
}
