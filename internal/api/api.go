// Package api is the one HTTP front door to the knowledge cycle: a
// versioned, stdlib-only JSON layer over schema.Store under /v1/, plus the
// registration seam (Handle, ServeCached) the explorer's HTML pages mount
// on, so both answer through one request pipeline and one result cache. It
// fronts every backend the store can open — an embedded database, a
// replicated primary+replica router, or a shard:// coordinator.
//
// Contracts the handlers keep:
//
//   - Pagination is keyset-based. List endpoints return an opaque cursor
//     (the EncodeKey-ordered key tuple of the last row, see cursor.go);
//     passing it back resumes exactly after that row, so pages stay
//     duplicate-free under concurrent inserts and deletes — offsets can't.
//   - Responses are cached per route+params, stamped with the (commit LSN,
//     shard epoch) they are valid at, and carry strong ETags; If-None-Match
//     yields 304s. A commit evicts only the entries whose footprint it can
//     change. See cache.go for the rules, and for why a client can never
//     read past its own writes' LSN.
//   - Errors are a uniform envelope: {"error":{"code","message"},
//     "request_id"} — including schema.ErrNotFound, which maps to a
//     structured 404 everywhere, and rate limiting, which maps to 429
//     with Retry-After.
package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/kdb"
	"repro/internal/schema"
	"repro/internal/telemetry"
)

// Config wires a Server; only Store is required.
type Config struct {
	Store *schema.Store
	// Metrics defaults to telemetry.Default().
	Metrics *telemetry.Registry
	// Rate/Burst configure per-client token buckets (requests/sec); Rate 0
	// disables limiting.
	Rate  float64
	Burst float64
	// MaxInflight caps concurrently-served requests (0 = unlimited);
	// excess load sheds with 503 + Retry-After rather than queueing.
	MaxInflight int
	// MaxPageLimit bounds ?limit= (default 500).
	MaxPageLimit int
	// ProbeInterval is how soon the cache's change feed redials the
	// primary's commit stream after it breaks, and how often it asks the
	// primary for its LSN until the stream is back (default 250ms;
	// irrelevant for embedded databases, whose records are read in-process).
	ProbeInterval time.Duration
}

const defaultPageLimit = 50

// Server is the front door; it implements http.Handler.
type Server struct {
	// Metrics receives the per-route request metrics and backs /metrics
	// and /metrics.json. New sets it from Config; tests may substitute a
	// private registry before the first request. The change feed's own
	// gauge (api_feed_streaming) stays in Config's.
	Metrics  *telemetry.Registry
	store    *schema.Store
	mux      *http.ServeMux
	cache    *resultCache
	limiter  *rateLimiter
	val      *validity
	inflight inflightGauge
	maxLimit int
}

// New builds the front door and starts its cache-freshness watcher; call
// Close when done to stop it.
func New(cfg Config) *Server {
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.Default()
	}
	if cfg.MaxPageLimit <= 0 {
		cfg.MaxPageLimit = 500
	}
	s := &Server{
		Metrics:  cfg.Metrics,
		store:    cfg.Store,
		mux:      http.NewServeMux(),
		limiter:  newRateLimiter(cfg.Rate, cfg.Burst),
		val:      newValidity(cfg.Store.DB, cfg.ProbeInterval, cfg.Metrics),
		maxLimit: cfg.MaxPageLimit,
	}
	s.cache = newResultCache(func() *telemetry.Registry { return s.Metrics })
	s.inflight.max = int64(cfg.MaxInflight)
	s.mux.HandleFunc("GET /v1/objects", s.route("objects", servePage(s, "objects", objectsPage, metaBody)))
	s.mux.HandleFunc("GET /v1/objects/{id}", s.route("object", servePoint(s, "object", loadObject)))
	s.mux.HandleFunc("GET /v1/io500", s.route("io500", servePage(s, "io500", io500Page, metaBody)))
	s.mux.HandleFunc("GET /v1/io500/{id}", s.route("io500_one", servePoint(s, "io500", loadIO500)))
	s.mux.HandleFunc("GET /v1/campaigns", s.route("campaigns", servePage(s, "campaigns", campaignsPage, campaignsBody)))
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.route("campaign", servePoint(s, "campaign", loadCampaign)))
	s.mux.HandleFunc("GET /v1/query", s.route("query", s.handleQuery))
	// History stores without versioning answer a structured 404.
	s.mux.HandleFunc("GET /v1/history", s.route("history", servePage(s, "history", historyPage, historyBody)))
	s.mux.HandleFunc("GET /v1/traces", s.route("traces", s.handleTraces))
	s.mux.HandleFunc("GET /v1/healthz", s.route("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /healthz", s.route("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.route("metrics", func(w http.ResponseWriter, r *http.Request, _ string) {
		telemetry.Handler(s.Metrics).ServeHTTP(w, r)
	}))
	s.mux.HandleFunc("GET /metrics.json", s.route("metrics_json", func(w http.ResponseWriter, r *http.Request, _ string) {
		telemetry.JSONHandler(s.Metrics).ServeHTTP(w, r)
	}))
	s.mux.HandleFunc("/", s.route("unmatched", s.handleUnmatched))
	return s
}

// Close stops the cache's change feed; its goroutine and stream connection
// are gone when it returns.
func (s *Server) Close() { s.val.close() }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Store is the knowledge store the front door serves.
func (s *Server) Store() *schema.Store { return s.store }

// Handle mounts h at pattern behind the pipeline every route runs
// through; name labels its hop ("api."+name) and its request metrics.
func (s *Server) Handle(pattern, name string, h http.Handler) {
	s.mux.HandleFunc(pattern, s.route(name, func(w http.ResponseWriter, r *http.Request, _ string) {
		h.ServeHTTP(w, r)
	}))
}

// inflightGauge is an admission semaphore: acquire fails once max are in.
type inflightGauge struct {
	cur atomic.Int64
	max int64
}

func (g *inflightGauge) acquire() bool {
	if g.max <= 0 {
		return true
	}
	if g.cur.Add(1) > g.max {
		g.cur.Add(-1)
		return false
	}
	return true
}

func (g *inflightGauge) release() {
	if g.max > 0 {
		g.cur.Add(-1)
	}
}

// route wraps a handler with the shared request pipeline: request id,
// rate limiting + load shedding, tracing hop, and telemetry (counter by
// path+code, latency histogram with the trace id as exemplar).
func (s *Server) route(name string, h func(http.ResponseWriter, *http.Request, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := newRequestID()
		w.Header().Set("X-Request-ID", rid)
		sw := &statusWriter{ResponseWriter: w}
		hop := telemetry.StartHop(telemetry.TraceContext{}, "api."+name)
		defer func() {
			code := sw.code()
			s.Metrics.Counter(telemetry.Label("api_requests_total", "path", name, "code", strconv.Itoa(code))).Inc()
			s.Metrics.Histogram(telemetry.Label("api_request_seconds", "path", name)).
				ObserveEx(time.Since(start).Seconds(), hop.TraceID())
			hop.AttrInt("status", int64(code))
			hop.End()
		}()
		// Health checks bypass admission control: a load balancer must be
		// able to see an overloaded node is alive.
		if name != "healthz" {
			if ok, retry := s.limiter.allow(clientKey(r)); !ok {
				s.Metrics.Counter("api_rate_limited_total").Inc()
				sw.Header().Set("Retry-After", strconv.Itoa(int(retry/time.Second)))
				s.writeError(sw, rid, http.StatusTooManyRequests, "rate_limited",
					"client request rate exceeded; retry after the indicated delay")
				return
			}
			if !s.inflight.acquire() {
				s.Metrics.Counter("api_shed_total").Inc()
				sw.Header().Set("Retry-After", "1")
				s.writeError(sw, rid, http.StatusServiceUnavailable, "overloaded",
					"server is at its concurrent-request cap")
				return
			}
			defer s.inflight.release()
		}
		r = r.WithContext(telemetry.ContextWith(r.Context(), hop.Context()))
		h(sw, r, rid)
	}
}

// ---- response envelopes ----

// listBody is the list-endpoint success envelope.
type listBody struct {
	Data       any    `json:"data"`
	Count      int    `json:"count"`
	NextCursor string `json:"next_cursor,omitempty"`
}

type errBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errEnvelope struct {
	Error     errBody `json:"error"`
	RequestID string  `json:"request_id"`
}

// writeError emits the structured error envelope. Errors are never cached
// and never carry ETags.
func (s *Server) writeError(w http.ResponseWriter, rid string, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errEnvelope{Error: errBody{Code: code, Message: msg}, RequestID: rid})
}

// StatusError is an error that answers with its own HTTP status and
// envelope code.
type StatusError struct {
	Status int
	Code   string
	Err    error
}

func (e *StatusError) Error() string { return e.Err.Error() }

// classify is the one error mapping of the front door: a StatusError keeps
// its own status, schema.ErrNotFound is a 404, anything else a 500.
func classify(err error) (status int, code string) {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Status, se.Code
	}
	if errors.Is(err, schema.ErrNotFound) {
		return http.StatusNotFound, "not_found"
	}
	return http.StatusInternalServerError, "internal"
}

// StatusOf is the HTTP status err answers with on every route, JSON or
// HTML.
func StatusOf(err error) int {
	status, _ := classify(err)
	return status
}

// failStore answers err with the structured envelope at its classified
// status.
func (s *Server) failStore(w http.ResponseWriter, rid string, err error) {
	status, code := classify(err)
	s.writeError(w, rid, status, code, err.Error())
}

// respondCached is the read path every cacheable JSON endpoint funnels
// through, with fn's value marshalled on a miss; fn reads through st.
func (s *Server) respondCached(w http.ResponseWriter, r *http.Request, rid, key string, fn func(st *schema.Store) (any, error)) {
	err := s.serveCached(w, r, key, "application/json", func(st *schema.Store) ([]byte, error) {
		data, err := fn(st)
		if err != nil {
			return nil, err
		}
		return json.Marshal(data)
	})
	if err != nil {
		s.failStore(w, rid, err)
	}
}

// ServeCached answers a GET of a page whose content depends only on the
// store through the same cache as the JSON routes, keyed by the path and
// the sorted query; build renders the body on a miss. A build error is
// returned with nothing written or cached. A page reports no footprint, so
// its entry is valid at its own LSN only.
func (s *Server) ServeCached(w http.ResponseWriter, r *http.Request, contentType string, build func() ([]byte, error)) error {
	return s.serveCached(w, r, r.URL.Path+"?"+r.URL.Query().Encode(), contentType, func(*schema.Store) ([]byte, error) {
		return build()
	})
}

// buildFunc renders one response body, reading the store through st.
type buildFunc func(st *schema.Store) ([]byte, error)

// serveCached answers from the cache at the current (LSN, epoch), or from a
// build on a miss, with validators — ETag for If-None-Match revalidation,
// X-Cache for observability, X-Knowledge-LSN so clients can assert
// freshness.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key, contentType string, build buildFunc) error {
	e, xcache, err := s.lookup(r.Context(), key, contentType, build)
	if err != nil {
		return err
	}
	h := w.Header()
	h.Set("X-Cache", xcache)
	h.Set("ETag", e.etag)
	h.Set("X-Knowledge-LSN", strconv.FormatInt(e.lsn, 10))
	// no-cache (not no-store): clients may keep copies but must revalidate
	// with If-None-Match — the 304 path below makes that nearly free.
	h.Set("Cache-Control", "private, no-cache")
	if match := r.Header.Get("If-None-Match"); match != "" && etagMatch(match, e.etag) {
		s.Metrics.Counter("api_not_modified_total").Inc()
		w.WriteHeader(http.StatusNotModified)
		return nil
	}
	h.Set("Content-Type", e.contentType)
	w.Write(e.body)
	return nil
}

// lookup returns key's entry valid at the current (LSN, epoch): a cached
// one, or the result of the one build running for key — led by this caller
// when none is. A waiter serves the build it waited for when that is
// stamped at or after the LSN current when it arrived, and looks again
// otherwise; it stops waiting when ctx ends.
func (s *Server) lookup(ctx context.Context, key, contentType string, build buildFunc) (*cacheEntry, string, error) {
	need, epoch := s.val.current()
	lsn, ep := need, epoch
	for {
		if e := s.cache.get(key, lsn, ep, s.val); e != nil {
			s.Metrics.Counter("api_cache_hit_total").Inc()
			return e, "hit", nil
		}
		f, lead := s.cache.join(key)
		if lead {
			e, err := s.lead(key, f, contentType, lsn, ep, build)
			if err == nil {
				s.Metrics.Counter("api_cache_miss_total").Inc()
			}
			return e, "miss", err
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, "", ctx.Err()
		}
		if f.err != nil {
			return nil, "", f.err
		}
		if f.e.lsn >= need && f.e.epoch == epoch {
			s.Metrics.Counter("api_cache_miss_total").Inc()
			return f.e, "miss", nil
		}
		lsn, ep = s.val.current()
	}
}

// errBuildAborted is what the waiters of a build that panicked get.
var errBuildAborted = errors.New("api: the build this request waited for was aborted")

// lead runs the build of flight f and lands it, also when the build
// panics: the panic goes on, and f's waiters get errBuildAborted.
func (s *Server) lead(key string, f *flight, contentType string, lsn, epoch int64, build buildFunc) (e *cacheEntry, err error) {
	landed := false
	defer func() {
		if !landed {
			s.cache.land(key, f, nil, errBuildAborted)
		}
	}()
	e, err = s.build(contentType, lsn, epoch, build)
	landed = true
	s.cache.land(key, f, e, err)
	return e, err
}

// build runs one build for the cache, current at (c0, epoch) when it
// starts. With a change feed its reads ask for their footprints, and it is
// stamped by the stamping rule (cache.go): when no LSN at or after c0 fits
// the reads — a lagging replica answered them — it reads again on the
// primary. Without a feed, when a read reports no footprint, or when even
// the primary's answer does not settle, it is stamped c0.
func (s *Server) build(contentType string, c0, epoch int64, build buildFunc) (*cacheEntry, error) {
	conn := s.store.DB
	for attempt := 0; ; attempt++ {
		st, rec := s.store, (*recorder)(nil)
		if s.val.feed {
			rec = &recorder{Conn: conn}
			st = &schema.Store{DB: rec}
		}
		body, err := build(st)
		if err != nil {
			return nil, err
		}
		e := &cacheEntry{body: body, contentType: contentType, etag: etagOf(body), lsn: c0, epoch: epoch}
		if rec == nil || rec.reads == 0 || rec.blind {
			return e, nil
		}
		if lsn, ok := s.val.settle(rec.fp, rec.lo, rec.hi, c0); ok {
			e.lsn, e.fp = lsn, slices.Clone(rec.fp) // kept for the entry's life: no spare capacity
			return e, nil
		}
		if attempt > 0 {
			return e, nil
		}
		conn = s.val.primary
	}
}

// recorder is the connection a build reads through when the server follows
// a change feed: every read goes out as a read step asking for its
// footprint (kdb.Stmt.Footprint), and the recorder keeps the union of the
// footprints and the range of LSNs the reads ran at. blind is set once a
// read came back without one.
type recorder struct {
	kdb.Conn
	fp     kdb.Footprint
	lo, hi int64
	reads  int
	blind  bool
}

func (r *recorder) QueryBatch(tc telemetry.TraceContext, stmts []kdb.Stmt) ([]*kdb.Rows, error) {
	asked := make([]kdb.Stmt, len(stmts))
	for i, st := range stmts {
		asked[i] = kdb.Stmt{SQL: st.SQL, Args: st.Args, Footprint: true}
	}
	out, err := r.Conn.QueryBatch(tc, asked)
	for _, rows := range out {
		fp, lsn := rows.Footprint()
		switch {
		case fp == nil:
			r.blind = true
		case r.reads == 0:
			r.lo, r.hi = lsn, lsn
		default:
			r.lo, r.hi = min(r.lo, lsn), max(r.hi, lsn)
		}
		r.reads++
		for _, d := range fp {
			if !slices.Contains(r.fp, d) {
				r.fp = append(r.fp, d)
			}
		}
	}
	return out, err
}

func (r *recorder) QueryTraced(tc telemetry.TraceContext, query string, args ...any) (*kdb.Rows, error) {
	out, err := r.QueryBatch(tc, []kdb.Stmt{{SQL: query, Args: args}})
	if err != nil {
		return nil, err
	}
	if len(out) != 1 {
		return nil, fmt.Errorf("api: a read of one statement was answered with %d", len(out))
	}
	return out[0], nil
}

func (r *recorder) Query(query string, args ...any) (*kdb.Rows, error) {
	return r.QueryTraced(telemetry.TraceContext{}, query, args...)
}

func (r *recorder) QueryRow(query string, args ...any) ([]any, error) {
	return kdb.FirstRow(r.Query(query, args...))
}

// etagMatch implements the If-None-Match list ("*" or comma-separated
// entity tags, weak-prefix tolerated).
func etagMatch(header, etag string) bool {
	for _, c := range strings.Split(header, ",") {
		c = strings.TrimSpace(c)
		if c == "*" || strings.TrimPrefix(c, "W/") == etag {
			return true
		}
	}
	return false
}

// PageParams parses ?limit= — a positive integer, clamped to the server's
// MaxPageLimit — and the id cursor in the query parameter named cursorKey
// (none when cursorKey is empty). A malformed value is a 400 StatusError.
func (s *Server) PageParams(q url.Values, cursorKey string) (afterID int64, limit int, err error) {
	limit = defaultPageLimit
	if v := q.Get("limit"); v != "" {
		n, perr := strconv.Atoi(v)
		if perr != nil || n < 1 {
			return 0, 0, &StatusError{Status: http.StatusBadRequest, Code: "invalid_cursor", Err: errors.New("limit must be a positive integer")}
		}
		limit = n
	}
	if limit > s.maxLimit {
		limit = s.maxLimit
	}
	if cursorKey != "" {
		if afterID, err = decodeIDCursor(q.Get(cursorKey)); err != nil {
			return 0, 0, &StatusError{Status: http.StatusBadRequest, Code: "invalid_cursor", Err: err}
		}
	}
	return afterID, limit, nil
}

// ---- page producers: one per list, called by the JSON routes and the
// explorer's pages alike ----

// Page is one keyset page of a list, in id order, and the opaque cursor
// that resumes after its last row ("" when the page came back short).
type Page[T any] struct {
	Rows []T
	Next string
}

func listPage[T any](list func(after int64, limit int) ([]T, error), id func(T) int64, after int64, limit int) (Page[T], error) {
	rows, err := list(after, limit)
	p := Page[T]{Rows: rows}
	if err == nil && len(rows) > 0 && len(rows) == limit {
		p.Next = encodeIDCursor(id(rows[len(rows)-1]))
	}
	return p, err
}

func metaID(m schema.Meta) int64 { return m.ID }

// ObjectsPage is one page of knowledge objects after the id after.
func (s *Server) ObjectsPage(after int64, limit int) (Page[schema.Meta], error) {
	return objectsPage(s.store, after, limit)
}

// IO500Page is one page of IO500 runs after the id after.
func (s *Server) IO500Page(after int64, limit int) (Page[schema.Meta], error) {
	return io500Page(s.store, after, limit)
}

// CampaignsPage is one page of campaigns after the id after.
func (s *Server) CampaignsPage(after int64, limit int) (Page[schema.CampaignMeta], error) {
	return campaignsPage(s.store, after, limit)
}

func objectsPage(st *schema.Store, after int64, limit int) (Page[schema.Meta], error) {
	return listPage(st.ListObjectsPage, metaID, after, limit)
}

func io500Page(st *schema.Store, after int64, limit int) (Page[schema.Meta], error) {
	return listPage(st.ListIO500Page, metaID, after, limit)
}

func campaignsPage(st *schema.Store, after int64, limit int) (Page[schema.CampaignMeta], error) {
	return listPage(st.ListCampaignsPage, func(m schema.CampaignMeta) int64 { return m.ID }, after, limit)
}

// Commit is one entry of the versioned-knowledge commit log (__log).
type Commit struct {
	ID         int64  `json:"id"`
	Hash       string `json:"hash"`
	Parents    string `json:"parents,omitempty"`
	Author     string `json:"author,omitempty"`
	Message    string `json:"message"`
	CampaignID int64  `json:"campaign_id,omitempty"`
	LSN        int64  `json:"lsn"`
	Created    string `json:"created"`
}

// History is one page of the commit log and every branch's head.
type History struct {
	Page[Commit]
	Branches map[string]string
}

// HistoryPage is one page of the commit log after the id after. A store
// without versioning answers a 404 StatusError coded versioning_disabled.
func (s *Server) HistoryPage(after int64, limit int) (History, error) {
	return historyPage(s.store, after, limit)
}

func historyPage(st *schema.Store, after int64, limit int) (History, error) {
	h := History{Branches: map[string]string{}}
	var err error
	commits := func(after int64, limit int) ([]Commit, error) { return commitsPage(st, after, limit) }
	h.Page, err = listPage(commits, func(c Commit) int64 { return c.ID }, after, limit)
	if err != nil {
		return History{}, historyErr(err)
	}
	rows, err := st.DB.Query("SELECT name, head FROM __branches")
	if err != nil {
		return History{}, historyErr(err)
	}
	for rows.Next() {
		row := rows.Row()
		h.Branches[asStr(row[0])] = asStr(row[1])
	}
	return h, nil
}

func commitsPage(st *schema.Store, after int64, limit int) ([]Commit, error) {
	rows, err := st.DB.Query(fmt.Sprintf(
		"SELECT id, hash, parents, author, message, campaign_id, lsn, created FROM __log WHERE id > ? ORDER BY id LIMIT %d", limit), after)
	if err != nil {
		return nil, err
	}
	var out []Commit
	for rows.Next() {
		row := rows.Row()
		out = append(out, Commit{
			ID: asI64(row[0]), Hash: asStr(row[1]), Parents: asStr(row[2]),
			Author: asStr(row[3]), Message: asStr(row[4]), CampaignID: asI64(row[5]),
			LSN: asI64(row[6]), Created: asStr(row[7]),
		})
	}
	return out, nil
}

// historyErr classifies a commit-log read failure: a missing system table
// means versioning is off, a 404 not a 500.
func historyErr(err error) error {
	if strings.Contains(err.Error(), "no such table") {
		return &StatusError{Status: http.StatusNotFound, Code: "versioning_disabled", Err: err}
	}
	return err
}

// ---- DTOs (schema structs carry no JSON tags; the wire shape is the
// API's contract, pinned here) ----

type metaDTO struct {
	ID      int64     `json:"id"`
	Source  string    `json:"source"`
	Command string    `json:"command"`
	Began   time.Time `json:"began"`
}

func toMetaDTOs(ms []schema.Meta) []metaDTO {
	out := make([]metaDTO, len(ms))
	for i, m := range ms {
		out[i] = metaDTO{ID: m.ID, Source: m.Source, Command: m.Command, Began: m.Began}
	}
	return out
}

type campaignDTO struct {
	ID       int64     `json:"id"`
	Name     string    `json:"name"`
	BaseSeed uint64    `json:"base_seed"`
	Workers  int64     `json:"workers"`
	Units    int64     `json:"units"`
	Began    time.Time `json:"began"`
	Finished time.Time `json:"finished"`
	WallMS   int64     `json:"wall_ms"`
	Status   string    `json:"status"`
}

func toCampaignDTO(m schema.CampaignMeta) campaignDTO {
	return campaignDTO{ID: m.ID, Name: m.Name, BaseSeed: m.BaseSeed, Workers: m.Workers,
		Units: m.Units, Began: m.Began, Finished: m.Finished, WallMS: m.WallMS, Status: m.Status}
}

type campaignRunDTO struct {
	Unit      int64   `json:"unit"`
	Name      string  `json:"name"`
	Seed      uint64  `json:"seed"`
	Status    string  `json:"status"`
	Attempts  int64   `json:"attempts"`
	WallMS    int64   `json:"wall_ms"`
	Error     string  `json:"error,omitempty"`
	ObjectIDs []int64 `json:"object_ids,omitempty"`
	IO500IDs  []int64 `json:"io500_ids,omitempty"`
}

// ---- handlers ----

// servePage is a paged list route: ?limit= and ?cursor= in, the
// producer's page out through the cache, in the envelope body shapes.
func servePage[P any](s *Server, name string, produce func(st *schema.Store, after int64, limit int) (P, error), body func(P) any) func(http.ResponseWriter, *http.Request, string) {
	return func(w http.ResponseWriter, r *http.Request, rid string) {
		after, limit, err := s.PageParams(r.URL.Query(), "cursor")
		if err != nil {
			s.failStore(w, rid, err)
			return
		}
		key := name + "?after=" + strconv.FormatInt(after, 10) + "&limit=" + strconv.Itoa(limit)
		s.respondCached(w, r, rid, key, func(st *schema.Store) (any, error) {
			p, err := produce(st, after, limit)
			if err != nil {
				return nil, err
			}
			return body(p), nil
		})
	}
}

func metaBody(p Page[schema.Meta]) any {
	return listBody{Data: toMetaDTOs(p.Rows), Count: len(p.Rows), NextCursor: p.Next}
}

func campaignsBody(p Page[schema.CampaignMeta]) any {
	dtos := make([]campaignDTO, len(p.Rows))
	for i, m := range p.Rows {
		dtos[i] = toCampaignDTO(m)
	}
	return listBody{Data: dtos, Count: len(dtos), NextCursor: p.Next}
}

func historyBody(h History) any {
	return map[string]any{"data": h.Rows, "count": len(h.Rows), "next_cursor": h.Next, "branches": h.Branches}
}

// servePoint is a by-id route: the {id} segment in, load's value out
// through the cache.
func servePoint(s *Server, name string, load func(st *schema.Store, id int64) (any, error)) func(http.ResponseWriter, *http.Request, string) {
	return func(w http.ResponseWriter, r *http.Request, rid string) {
		id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
		if err != nil {
			s.writeError(w, rid, http.StatusBadRequest, "invalid_id", "id must be an integer")
			return
		}
		s.respondCached(w, r, rid, name+"/"+strconv.FormatInt(id, 10), func(st *schema.Store) (any, error) { return load(st, id) })
	}
}

func loadObject(st *schema.Store, id int64) (any, error) {
	obj, err := st.LoadObject(id)
	return map[string]any{"data": obj}, err
}

func loadIO500(st *schema.Store, id int64) (any, error) {
	obj, err := st.LoadIO500(id)
	return map[string]any{"data": obj}, err
}

func loadCampaign(st *schema.Store, id int64) (any, error) {
	meta, runs, err := st.LoadCampaign(id)
	if err != nil {
		return nil, err
	}
	runDTOs := make([]campaignRunDTO, len(runs))
	for i, cr := range runs {
		runDTOs[i] = campaignRunDTO{Unit: cr.Unit, Name: cr.Name, Seed: cr.Seed,
			Status: cr.Status, Attempts: cr.Attempts, WallMS: cr.WallMS,
			Error: cr.Error, ObjectIDs: cr.ObjectIDs, IO500IDs: cr.IO500IDs}
	}
	return map[string]any{"data": toCampaignDTO(*meta), "runs": runDTOs}, nil
}

// handleQuery runs ad-hoc read-only SQL — the escape hatch for dashboards
// that need a projection the fixed endpoints don't offer. Writes and DDL
// are rejected before touching the engine.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, rid string) {
	q := strings.TrimSpace(r.URL.Query().Get("q"))
	if q == "" {
		s.writeError(w, rid, http.StatusBadRequest, "missing_query", "pass SQL in the q parameter")
		return
	}
	class, _, err := kdb.Classify(q)
	if err != nil {
		s.writeError(w, rid, http.StatusBadRequest, "invalid_query", err.Error())
		return
	}
	if class != kdb.StmtSelect {
		s.writeError(w, rid, http.StatusBadRequest, "read_only", "only SELECT statements are allowed here")
		return
	}
	tc := telemetry.ContextTrace(r.Context())
	s.respondCached(w, r, rid, "query?q="+q, func(st *schema.Store) (any, error) {
		rows, err := st.DB.QueryTraced(tc, q)
		if err != nil {
			return nil, err
		}
		var data [][]any
		for rows.Next() {
			data = append(data, rows.Row())
		}
		return map[string]any{"columns": rows.Columns, "rows": data, "count": len(data)}, nil
	})
}

// handleTraces serves the distributed-tracing views: the slow-query log by
// default, one assembled trace with ?trace_id=. Trace rings mutate outside
// the commit LSN, so these are never cached.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request, rid string) {
	q := r.URL.Query()
	if id := q.Get("trace_id"); id != "" {
		spans := schema.TraceSpans(s.store.DB, id)
		s.writeJSON(w, map[string]any{"data": spans, "count": len(spans)})
		return
	}
	_, limit, err := s.PageParams(q, "")
	if err != nil {
		s.failStore(w, rid, err)
		return
	}
	slow := schema.SlowQueries(s.store.DB, limit)
	s.writeJSON(w, map[string]any{"data": slow, "count": len(slow)})
}

// handleHealthz serves the store's status: role, LSN, routed replicas and
// the shard-map epoch (schema.Store.Status).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request, rid string) {
	s.writeJSON(w, s.store.Status())
}

func (s *Server) handleUnmatched(w http.ResponseWriter, r *http.Request, rid string) {
	s.writeError(w, rid, http.StatusNotFound, "not_found",
		fmt.Sprintf("no such endpoint: %s %s", r.Method, r.URL.Path))
}

func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// asI64/asStr coerce engine values (which arrive as int64/float64/string/
// nil) without panicking on surprises.
func asI64(v any) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case float64:
		return int64(x)
	}
	return 0
}

func asStr(v any) string {
	if s, ok := v.(string); ok {
		return s
	}
	if v == nil {
		return ""
	}
	return fmt.Sprint(v)
}
