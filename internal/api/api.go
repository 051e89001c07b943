// Package api is the JSON front door to the knowledge cycle: a versioned,
// stdlib-only REST layer over schema.Store that serves the accumulated
// knowledge to programs the way the explorer serves it to browsers. It
// mounts beside the explorer (iokc serve --api) or alone, and fronts every
// backend the store can open — an embedded database, a replicated
// primary+replica router, or a shard:// coordinator.
//
// Contracts the handlers keep:
//
//   - Pagination is keyset-based. List endpoints return an opaque cursor
//     (the EncodeKey-ordered key tuple of the last row, see cursor.go);
//     passing it back resumes exactly after that row, so pages stay
//     duplicate-free under concurrent inserts and deletes — offsets can't.
//   - Responses are cached per (route+params, commit LSN, shard epoch) and
//     carry strong ETags; If-None-Match yields 304s. See cache.go for why
//     a client can never read past its own writes' LSN.
//   - Errors are a uniform envelope: {"error":{"code","message"},
//     "request_id"} — including schema.ErrNotFound, which maps to a
//     structured 404 everywhere, and rate limiting, which maps to 429
//     with Retry-After.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
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
	// ProbeInterval is the remote-LSN poll cadence for cache invalidation
	// (default 250ms; irrelevant for embedded databases, which invalidate
	// on the commit broadcast).
	ProbeInterval time.Duration
}

const defaultPageLimit = 50

// Server is the API subsystem; it implements http.Handler.
type Server struct {
	store    *schema.Store
	reg      *telemetry.Registry
	mux      *http.ServeMux
	cache    *resultCache
	limiter  *rateLimiter
	val      *validity
	inflight inflightGauge
	maxLimit int
}

// New builds the API server and starts its cache-freshness watcher; call
// Close when done to stop it.
func New(cfg Config) *Server {
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.Default()
	}
	if cfg.MaxPageLimit <= 0 {
		cfg.MaxPageLimit = 500
	}
	s := &Server{
		store:    cfg.Store,
		reg:      cfg.Metrics,
		mux:      http.NewServeMux(),
		cache:    newResultCache(),
		limiter:  newRateLimiter(cfg.Rate, cfg.Burst),
		val:      newValidity(cfg.Store.DB, cfg.ProbeInterval),
		maxLimit: cfg.MaxPageLimit,
	}
	s.inflight.max = int64(cfg.MaxInflight)
	s.mux.HandleFunc("GET /v1/objects", s.route("objects", s.handleObjects))
	s.mux.HandleFunc("GET /v1/objects/{id}", s.route("object", s.handleObject))
	s.mux.HandleFunc("GET /v1/io500", s.route("io500", s.handleIO500List))
	s.mux.HandleFunc("GET /v1/io500/{id}", s.route("io500_one", s.handleIO500))
	s.mux.HandleFunc("GET /v1/campaigns", s.route("campaigns", s.handleCampaigns))
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.route("campaign", s.handleCampaign))
	s.mux.HandleFunc("GET /v1/query", s.route("query", s.handleQuery))
	s.mux.HandleFunc("GET /v1/history", s.route("history", s.handleHistory))
	s.mux.HandleFunc("GET /v1/traces", s.route("traces", s.handleTraces))
	s.mux.HandleFunc("GET /v1/healthz", s.route("healthz", s.handleHealthz))
	s.mux.HandleFunc("/", s.route("unmatched", s.handleUnmatched))
	return s
}

// Close stops the cache-freshness watcher.
func (s *Server) Close() { s.val.close() }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

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
			s.reg.Counter(telemetry.Label("api_requests_total", "path", name, "code", strconv.Itoa(code))).Inc()
			s.reg.Histogram(telemetry.Label("api_request_seconds", "path", name)).
				ObserveEx(time.Since(start).Seconds(), hop.TraceID())
			hop.AttrInt("status", int64(code))
			hop.End()
		}()
		// Health checks bypass admission control: a load balancer must be
		// able to see an overloaded node is alive.
		if name != "healthz" {
			if ok, retry := s.limiter.allow(clientKey(r)); !ok {
				s.reg.Counter("api_rate_limited_total").Inc()
				sw.Header().Set("Retry-After", strconv.Itoa(int(retry/time.Second)))
				s.writeError(sw, rid, http.StatusTooManyRequests, "rate_limited",
					"client request rate exceeded; retry after the indicated delay")
				return
			}
			if !s.inflight.acquire() {
				s.reg.Counter("api_shed_total").Inc()
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

// page is the list-endpoint success envelope.
type page struct {
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

// failStore maps a store error onto the envelope: ErrNotFound becomes a
// structured 404 (satisfying the "JSON everywhere" contract), an endpoint-
// classified error keeps its classification, anything else is a 500.
func (s *Server) failStore(w http.ResponseWriter, rid string, err error) {
	var ce *classifiedError
	if errors.As(err, &ce) {
		s.writeError(w, rid, ce.status, ce.code, ce.Error())
		return
	}
	if errors.Is(err, schema.ErrNotFound) {
		s.writeError(w, rid, http.StatusNotFound, "not_found", err.Error())
		return
	}
	s.writeError(w, rid, http.StatusInternalServerError, "internal", err.Error())
}

// respondCached is the read path every cacheable endpoint funnels through:
// check the cache at the current (LSN, epoch), recompute on miss, then
// answer with validators — ETag for If-None-Match revalidation, X-Cache
// for observability, X-Knowledge-LSN so clients can assert freshness.
func (s *Server) respondCached(w http.ResponseWriter, r *http.Request, rid, key string, fn func() (any, error)) {
	lsn, epoch := s.val.current()
	e := s.cache.get(key, lsn, epoch)
	if e != nil {
		s.reg.Counter("api_cache_hit_total").Inc()
	} else {
		s.reg.Counter("api_cache_miss_total").Inc()
		data, err := fn()
		if err != nil {
			s.failStore(w, rid, err)
			return
		}
		body, err := json.Marshal(data)
		if err != nil {
			s.writeError(w, rid, http.StatusInternalServerError, "internal", err.Error())
			return
		}
		e = &cacheEntry{body: body, etag: etagOf(body), lsn: lsn, epoch: epoch}
		s.cache.put(key, e)
		w.Header().Set("X-Cache", "miss")
	}
	if w.Header().Get("X-Cache") == "" {
		w.Header().Set("X-Cache", "hit")
	}
	w.Header().Set("ETag", e.etag)
	w.Header().Set("X-Knowledge-LSN", strconv.FormatInt(e.lsn, 10))
	// no-cache (not no-store): clients may keep copies but must revalidate
	// with If-None-Match — the 304 path below makes that nearly free.
	w.Header().Set("Cache-Control", "private, no-cache")
	if match := r.Header.Get("If-None-Match"); match != "" && etagMatch(match, e.etag) {
		s.reg.Counter("api_not_modified_total").Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(e.body)
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

// pageParams parses ?limit= and ?cursor= with the shared bounds.
func (s *Server) pageParams(r *http.Request) (afterID int64, limit int, err error) {
	limit = defaultPageLimit
	if v := r.URL.Query().Get("limit"); v != "" {
		n, perr := strconv.Atoi(v)
		if perr != nil || n < 1 {
			return 0, 0, fmt.Errorf("limit must be a positive integer")
		}
		limit = n
	}
	if limit > s.maxLimit {
		limit = s.maxLimit
	}
	afterID, err = decodeIDCursor(r.URL.Query().Get("cursor"))
	return afterID, limit, err
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

func (s *Server) handleObjects(w http.ResponseWriter, r *http.Request, rid string) {
	after, limit, err := s.pageParams(r)
	if err != nil {
		s.writeError(w, rid, http.StatusBadRequest, "invalid_cursor", err.Error())
		return
	}
	key := fmt.Sprintf("objects?after=%d&limit=%d", after, limit)
	s.respondCached(w, r, rid, key, func() (any, error) {
		metas, err := s.store.ListObjectsPage(after, limit)
		if err != nil {
			return nil, err
		}
		p := page{Data: toMetaDTOs(metas), Count: len(metas)}
		if len(metas) == limit {
			p.NextCursor = encodeIDCursor(metas[len(metas)-1].ID)
		}
		return p, nil
	})
}

func (s *Server) handleIO500List(w http.ResponseWriter, r *http.Request, rid string) {
	after, limit, err := s.pageParams(r)
	if err != nil {
		s.writeError(w, rid, http.StatusBadRequest, "invalid_cursor", err.Error())
		return
	}
	key := fmt.Sprintf("io500?after=%d&limit=%d", after, limit)
	s.respondCached(w, r, rid, key, func() (any, error) {
		metas, err := s.store.ListIO500Page(after, limit)
		if err != nil {
			return nil, err
		}
		p := page{Data: toMetaDTOs(metas), Count: len(metas)}
		if len(metas) == limit {
			p.NextCursor = encodeIDCursor(metas[len(metas)-1].ID)
		}
		return p, nil
	})
}

func (s *Server) handleCampaigns(w http.ResponseWriter, r *http.Request, rid string) {
	after, limit, err := s.pageParams(r)
	if err != nil {
		s.writeError(w, rid, http.StatusBadRequest, "invalid_cursor", err.Error())
		return
	}
	key := fmt.Sprintf("campaigns?after=%d&limit=%d", after, limit)
	s.respondCached(w, r, rid, key, func() (any, error) {
		metas, err := s.store.ListCampaignsPage(after, limit)
		if err != nil {
			return nil, err
		}
		dtos := make([]campaignDTO, len(metas))
		for i, m := range metas {
			dtos[i] = toCampaignDTO(m)
		}
		p := page{Data: dtos, Count: len(metas)}
		if len(metas) == limit {
			p.NextCursor = encodeIDCursor(metas[len(metas)-1].ID)
		}
		return p, nil
	})
}

// pathID parses the {id} segment; failures are client errors, not 500s.
func pathID(r *http.Request) (int64, error) {
	return strconv.ParseInt(r.PathValue("id"), 10, 64)
}

func (s *Server) handleObject(w http.ResponseWriter, r *http.Request, rid string) {
	id, err := pathID(r)
	if err != nil {
		s.writeError(w, rid, http.StatusBadRequest, "invalid_id", "id must be an integer")
		return
	}
	s.respondCached(w, r, rid, fmt.Sprintf("object/%d", id), func() (any, error) {
		obj, err := s.store.LoadObject(id)
		if err != nil {
			return nil, err
		}
		return map[string]any{"data": obj}, nil
	})
}

func (s *Server) handleIO500(w http.ResponseWriter, r *http.Request, rid string) {
	id, err := pathID(r)
	if err != nil {
		s.writeError(w, rid, http.StatusBadRequest, "invalid_id", "id must be an integer")
		return
	}
	s.respondCached(w, r, rid, fmt.Sprintf("io500/%d", id), func() (any, error) {
		obj, err := s.store.LoadIO500(id)
		if err != nil {
			return nil, err
		}
		return map[string]any{"data": obj}, nil
	})
}

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request, rid string) {
	id, err := pathID(r)
	if err != nil {
		s.writeError(w, rid, http.StatusBadRequest, "invalid_id", "id must be an integer")
		return
	}
	s.respondCached(w, r, rid, fmt.Sprintf("campaign/%d", id), func() (any, error) {
		meta, runs, err := s.store.LoadCampaign(id)
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
	})
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
	s.respondCached(w, r, rid, "query?q="+q, func() (any, error) {
		rows, err := s.store.DB.QueryTraced(tc, q)
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

// handleHistory pages the versioned-knowledge commit log (the __log system
// table) and lists branches. Stores without versioning enabled answer a
// structured 404.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request, rid string) {
	after, limit, err := s.pageParams(r)
	if err != nil {
		s.writeError(w, rid, http.StatusBadRequest, "invalid_cursor", err.Error())
		return
	}
	key := fmt.Sprintf("history?after=%d&limit=%d", after, limit)
	s.respondCachedErrMap(w, r, rid, key, func() (any, error) {
		rows, err := s.store.DB.Query(fmt.Sprintf(
			"SELECT id, hash, parents, author, message, campaign_id, lsn, created FROM __log WHERE id > ? ORDER BY id LIMIT %d", limit), after)
		if err != nil {
			return nil, err
		}
		type commitDTO struct {
			ID         int64  `json:"id"`
			Hash       string `json:"hash"`
			Parents    string `json:"parents,omitempty"`
			Author     string `json:"author,omitempty"`
			Message    string `json:"message"`
			CampaignID int64  `json:"campaign_id,omitempty"`
			LSN        int64  `json:"lsn"`
			Created    string `json:"created"`
		}
		var commits []commitDTO
		for rows.Next() {
			row := rows.Row()
			commits = append(commits, commitDTO{
				ID: asI64(row[0]), Hash: asStr(row[1]), Parents: asStr(row[2]),
				Author: asStr(row[3]), Message: asStr(row[4]), CampaignID: asI64(row[5]),
				LSN: asI64(row[6]), Created: asStr(row[7]),
			})
		}
		brows, err := s.store.DB.Query("SELECT name, head FROM __branches")
		if err != nil {
			return nil, err
		}
		branches := map[string]string{}
		for brows.Next() {
			row := brows.Row()
			branches[asStr(row[0])] = asStr(row[1])
		}
		p := page{Data: commits, Count: len(commits)}
		if len(commits) == limit {
			p.NextCursor = encodeIDCursor(commits[len(commits)-1].ID)
		}
		return map[string]any{"data": p.Data, "count": p.Count, "next_cursor": p.NextCursor, "branches": branches}, nil
	}, func(err error) (int, string) {
		if strings.Contains(err.Error(), "no such table") {
			return http.StatusNotFound, "versioning_disabled"
		}
		return 0, ""
	})
}

// respondCachedErrMap is respondCached with a custom error classifier for
// endpoints whose store errors carry extra meaning (history: a missing
// __log table means versioning is off, a 404 not a 500).
func (s *Server) respondCachedErrMap(w http.ResponseWriter, r *http.Request, rid, key string,
	fn func() (any, error), classify func(error) (int, string)) {
	s.respondCached(w, r, rid, key, func() (any, error) {
		data, err := fn()
		if err != nil {
			if status, code := classify(err); status != 0 {
				return nil, &classifiedError{status: status, code: code, err: err}
			}
			return nil, err
		}
		return data, nil
	})
}

type classifiedError struct {
	status int
	code   string
	err    error
}

func (e *classifiedError) Error() string { return e.err.Error() }

// handleTraces serves the distributed-tracing views: the slow-query log by
// default, one assembled trace with ?trace_id=. Trace rings mutate outside
// the commit LSN, so these are never cached.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request, rid string) {
	if id := r.URL.Query().Get("trace_id"); id != "" {
		spans := schema.TraceSpans(s.store.DB, id)
		s.writeJSON(w, map[string]any{"data": spans, "count": len(spans)})
		return
	}
	limit := defaultPageLimit
	if v := r.URL.Query().Get("limit"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 && n <= s.maxLimit {
			limit = n
		}
	}
	slow := schema.SlowQueries(s.store.DB, limit)
	s.writeJSON(w, map[string]any{"data": slow, "count": len(slow)})
}

// handleHealthz serves the store's status — the explorer's /healthz view —
// in the API's JSON encoding.
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
