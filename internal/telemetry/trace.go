package telemetry

// Distributed tracing. A TraceContext (trace id + parent span id) travels
// with a request across process boundaries — the kdb wire protocol carries
// it as two optional JSON fields — and every layer the request crosses
// (remote client, server, scatter-gather coordinator, replica router, the
// engine itself) opens a Hop: one span that is recorded into the
// process-wide TraceStore when it ends. Spans reference their parent by id
// rather than by pointer, so a trace assembled from several processes'
// stores still forms one tree.
//
// Tracing is off by default and costs two atomic loads per request when
// off. It turns on when a slow-query threshold is set (SetSlowQueryThreshold)
// or explicitly (SetTracing); a request arriving WITH a trace context is
// always recorded, so a node that has tracing off locally still contributes
// its hops to traces started elsewhere.
//
// This is the only span model. Request layers open hops with StartHop,
// which may start a trace; the knowledge cycle and the campaign scheduler
// open theirs with JoinHop, which never does — their phases appear in a
// trace someone else started (iokc --trace, via StartTrace) and cost
// nothing otherwise, so a serving process's rings hold requests, not
// campaign phases.
//
// The store is two fixed-size rings: recent spans and the slow-query log.
// A root hop (one with no parent) whose duration crosses the threshold
// lands in the slow-query log with its full SQL — the entries behind the
// __slow_queries system table and the explorer's /traces page. A trace
// begun with StartTrace is kept whole beside the span ring until Release.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"
)

// traceCtxKey carries a TraceContext through a context.Context — the
// in-process analogue of the wire protocol's trace fields, used by HTTP
// layers to hand their hop to the storage calls they make.
type traceCtxKey struct{}

// ContextWith returns ctx carrying tc for ContextTrace to recover.
func ContextWith(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// ContextTrace recovers the TraceContext stored by ContextWith, or the
// zero ("untraced") context when none is present.
func ContextTrace(ctx context.Context) TraceContext {
	tc, _ := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc
}

// TraceContext identifies a position in a trace: the trace and the span
// that downstream hops should attach to. The zero value means "untraced".
type TraceContext struct {
	TraceID string
	SpanID  string
}

// Valid reports whether the context belongs to a trace.
func (tc TraceContext) Valid() bool { return tc.TraceID != "" }

var (
	slowNanos     atomic.Int64
	tracingForced atomic.Bool
	traceNode     atomic.Pointer[string]
)

// SetSlowQueryThreshold sets the duration at or above which a root hop is
// recorded in the slow-query log. A positive threshold also turns tracing
// on; zero disables the log (and tracing, unless forced by SetTracing).
func SetSlowQueryThreshold(d time.Duration) { slowNanos.Store(int64(d)) }

// SetTracing forces tracing on (or back off) independently of the
// slow-query threshold — spans are recorded, but nothing is logged slow.
func SetTracing(on bool) { tracingForced.Store(on) }

// TracingOn reports whether new root traces should be started.
func TracingOn() bool { return tracingForced.Load() || slowNanos.Load() > 0 }

// SetTraceNode names this process in recorded spans (an advertise address,
// "coordinator", "explorer", ...). Empty means unnamed.
func SetTraceNode(name string) { traceNode.Store(&name) }

// TraceNode returns the configured node name.
func TraceNode() string {
	if p := traceNode.Load(); p != nil {
		return *p
	}
	return ""
}

// newID returns n random bytes hex-encoded (16 bytes for trace ids, 8 for
// span ids, mirroring W3C trace-context sizes).
func newID(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		// crypto/rand never fails on supported platforms; a zero id keeps
		// the trace usable rather than panicking an instrumented hot path.
		return ""
	}
	return hex.EncodeToString(b)
}

// Attr is one key/value annotation on a span (rows scanned, path taken,
// shard fanout, replica chosen...).
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanRecord is one completed hop of a trace.
type SpanRecord struct {
	TraceID  string    `json:"trace_id"`
	SpanID   string    `json:"span_id"`
	ParentID string    `json:"parent_id,omitempty"`
	Name     string    `json:"name"`
	Node     string    `json:"node,omitempty"`
	SQL      string    `json:"sql,omitempty"`
	Start    time.Time `json:"start"`
	Seconds  float64   `json:"seconds"`
	Attrs    []Attr    `json:"attrs,omitempty"`
}

// AttrsText renders the annotations as "k=v k=v" for single-column
// exposition (the __trace_spans attrs column, the trace artifact); ParseAttrs
// reads it back. Keys are identifiers; values are quoted where needed.
func (r SpanRecord) AttrsText() string {
	var b strings.Builder
	for i, a := range r.Attrs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(a.Key)
		b.WriteByte('=')
		b.WriteString(quoteIfNeeded(a.Value))
	}
	return b.String()
}

// quoteIfNeeded returns v as it may stand after "key=" in a space-separated
// field list: bare, or strconv.Quoted when it contains whitespace, '"' or
// '=' (an error message, a plan description).
func quoteIfNeeded(v string) string {
	if strings.ContainsAny(v, "\"=") || strings.IndexFunc(v, unicode.IsSpace) >= 0 {
		return strconv.Quote(v)
	}
	return v
}

// ParseAttrs is the inverse of AttrsText. It never fails: a field without
// '=' is skipped and a value with an unterminated quote is taken bare, so
// the unquoted text an older peer emits parses as it always did.
func ParseAttrs(s string) []Attr {
	var out []Attr
	for {
		s = strings.TrimLeftFunc(s, unicode.IsSpace)
		if s == "" {
			return out
		}
		end := strings.IndexFunc(s, unicode.IsSpace)
		if end < 0 {
			end = len(s)
		}
		eq := strings.IndexByte(s[:end], '=')
		if eq < 0 {
			s = s[end:]
			continue
		}
		key, rest := s[:eq], s[eq+1:]
		if strings.HasPrefix(rest, `"`) {
			if q, err := strconv.QuotedPrefix(rest); err == nil {
				v, _ := strconv.Unquote(q)
				out = append(out, Attr{Key: key, Value: v})
				s = rest[len(q):]
				continue
			}
		}
		out = append(out, Attr{Key: key, Value: s[eq+1 : end]})
		s = s[end:]
	}
}

// SlowQuery is one slow-query log entry: a root hop that crossed the
// threshold.
type SlowQuery struct {
	TraceID string    `json:"trace_id"`
	SQL     string    `json:"sql"`
	Node    string    `json:"node,omitempty"`
	Start   time.Time `json:"start"`
	Seconds float64   `json:"seconds"`
	Rows    int64     `json:"rows"`
}

// Ring capacities. Spans dominate (every hop of every trace); the slow log
// holds only threshold-crossing roots.
const (
	spanRingSize = 4096
	slowRingSize = 256
)

// TraceStore is a bounded in-memory span and slow-query store. Recording
// only happens while tracing is active, so a mutex (not lock-free
// machinery) is the right cost/complexity trade.
type TraceStore struct {
	mu       sync.Mutex
	spans    []SpanRecord // ring, capacity spanRingSize
	spanNext int
	slow     []SlowQuery // ring, capacity slowRingSize
	slowNext int
	// retained holds, by trace id, the traces begun with StartTrace: their
	// spans bypass the ring (they neither wrap out of it nor crowd request
	// spans out) until Release hands them back.
	retained map[string][]SpanRecord
}

// Traces is the process-wide trace store every built-in instrumentation
// point records into.
var Traces = NewTraceStore()

// NewTraceStore returns an empty store.
func NewTraceStore() *TraceStore { return &TraceStore{} }

// Record appends one span, evicting the oldest when the ring is full. A
// span of a retained trace is kept with its trace instead.
func (t *TraceStore) Record(rec SpanRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if kept, ok := t.retained[rec.TraceID]; ok {
		t.retained[rec.TraceID] = append(kept, rec)
		return
	}
	if len(t.spans) < spanRingSize {
		t.spans = append(t.spans, rec)
	} else {
		t.spans[t.spanNext] = rec
	}
	t.spanNext = (t.spanNext + 1) % spanRingSize
}

// Release returns the spans of a trace begun with StartTrace, ordered by
// start time as /v1/traces serves a trace, and forgets the trace.
func (t *TraceStore) Release(traceID string) []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := t.retained[traceID]
	delete(t.retained, traceID)
	t.mu.Unlock()
	sortByStart(spans)
	return spans
}

// sortByStart orders spans by start time, keeping the given order among
// equal starts. A parent starts before its children, so this is the order
// traces are served and rendered in.
func sortByStart(spans []SpanRecord) {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
}

// RecordSlow appends one slow-query entry, evicting the oldest when full.
func (t *TraceStore) RecordSlow(q SlowQuery) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.slow) < slowRingSize {
		t.slow = append(t.slow, q)
	} else {
		t.slow[t.slowNext] = q
	}
	t.slowNext = (t.slowNext + 1) % slowRingSize
	t.mu.Unlock()
}

// Spans returns every span the store holds of one trace, oldest first.
func (t *TraceStore) Spans(traceID string) []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]SpanRecord(nil), t.retained[traceID]...)
	t.mu.Unlock()
	for _, s := range t.AllSpans() {
		if s.TraceID == traceID {
			out = append(out, s)
		}
	}
	return out
}

// AllSpans returns the span ring, oldest first.
func (t *TraceStore) AllSpans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, len(t.spans))
	if len(t.spans) == spanRingSize {
		out = append(out, t.spans[t.spanNext:]...)
	}
	out = append(out, t.spans[:t.spanNext]...)
	if len(t.spans) < spanRingSize {
		// Ring not yet wrapped: spans[:spanNext] is already everything.
		out = out[:len(t.spans)]
	}
	return out
}

// SlowQueries returns the retained slow-query log, oldest first.
func (t *TraceStore) SlowQueries() []SlowQuery {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SlowQuery, 0, len(t.slow))
	if len(t.slow) == slowRingSize {
		out = append(out, t.slow[t.slowNext:]...)
	}
	out = append(out, t.slow[:t.slowNext]...)
	if len(t.slow) < slowRingSize {
		out = out[:len(t.slow)]
	}
	return out
}

// Reset clears both rings and every retained trace (tests).
func (t *TraceStore) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans, t.spanNext = nil, 0
	t.slow, t.slowNext = nil, 0
	t.retained = nil
	t.mu.Unlock()
}

// Hop is one in-flight span. A nil *Hop is a no-op on every method, so
// instrumented code never branches on "is tracing on": StartHop decides
// once. A Hop is owned by one goroutine; it is not safe for concurrent
// use (start one hop per goroutine instead).
type Hop struct {
	store *TraceStore
	rec   SpanRecord
	rows  int64
	ended bool
}

// StartHop opens a span in the process-wide store. With a valid context
// the span joins that trace as a child of tc.SpanID; with a zero context a
// new root trace is started if tracing is on, and nil is returned
// otherwise.
func StartHop(tc TraceContext, name string) *Hop { return Traces.StartHop(tc, name) }

// StartHop opens a span recorded into this store; see the package-level
// StartHop.
func (t *TraceStore) StartHop(tc TraceContext, name string) *Hop {
	if !tc.Valid() {
		if !TracingOn() {
			return nil
		}
		tc = TraceContext{TraceID: newID(16)}
	}
	return t.JoinHop(tc, name)
}

// JoinHop opens a span in the process-wide store only when tc belongs to a
// trace, as a child of tc.SpanID; it never starts a trace, whatever the
// process-wide tracing state. The knowledge cycle and the campaign
// scheduler use it for their phases.
func JoinHop(tc TraceContext, name string) *Hop { return Traces.JoinHop(tc, name) }

// StartTrace starts a new trace unconditionally and returns its root hop.
// The store keeps every span of the trace, however many, until Release —
// the caller asked for this trace and reads it back whole (iokc --trace).
func (t *TraceStore) StartTrace(name string) *Hop {
	id := newID(16)
	t.mu.Lock()
	if t.retained == nil {
		t.retained = map[string][]SpanRecord{}
	}
	t.retained[id] = nil
	t.mu.Unlock()
	return t.JoinHop(TraceContext{TraceID: id}, name)
}

// JoinHop opens a span recorded into this store; see the package-level
// JoinHop.
func (t *TraceStore) JoinHop(tc TraceContext, name string) *Hop {
	if !tc.Valid() {
		return nil
	}
	return &Hop{
		store: t,
		rec: SpanRecord{
			TraceID:  tc.TraceID,
			SpanID:   newID(8),
			ParentID: tc.SpanID,
			Name:     name,
			Node:     TraceNode(),
			Start:    time.Now(),
		},
	}
}

// Context returns the context downstream hops should attach to (this hop
// as parent). On a nil hop it returns the zero context, which downstream
// layers treat as "untraced".
func (h *Hop) Context() TraceContext {
	if h == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: h.rec.TraceID, SpanID: h.rec.SpanID}
}

// TraceID returns the owning trace's id ("" on nil).
func (h *Hop) TraceID() string {
	if h == nil {
		return ""
	}
	return h.rec.TraceID
}

// SetSQL attaches the statement text.
func (h *Hop) SetSQL(sql string) {
	if h != nil {
		h.rec.SQL = sql
	}
}

// SetNode overrides the process-wide node name for this span.
func (h *Hop) SetNode(node string) {
	if h != nil && node != "" {
		h.rec.Node = node
	}
}

// Attr annotates the span.
func (h *Hop) Attr(key, value string) {
	if h != nil {
		h.rec.Attrs = append(h.rec.Attrs, Attr{Key: key, Value: value})
	}
}

// AttrInt annotates the span with an integer value. The "rows" key also
// feeds the slow-query log's row count.
func (h *Hop) AttrInt(key string, v int64) {
	if h == nil {
		return
	}
	if key == "rows" {
		h.rows = v
	}
	h.Attr(key, strconv.FormatInt(v, 10))
}

// AttrFloat annotates the span with a float value.
func (h *Hop) AttrFloat(key string, v float64) {
	if h != nil {
		h.Attr(key, formatFloat(v))
	}
}

// Fail annotates the span with the error and ends it.
func (h *Hop) Fail(err error) {
	if h == nil {
		return
	}
	if err != nil {
		h.Attr("error", err.Error())
	}
	h.End()
}

// End records the span (first call wins). A root hop that crossed the
// slow-query threshold is also logged as a slow query.
func (h *Hop) End() {
	if h != nil {
		h.EndAfter(time.Since(h.rec.Start))
	}
}

// EndAfter is End with the duration supplied by a caller that has already
// measured it, so one clock reading serves the span, the latency histogram
// and the phase-timing list alike.
func (h *Hop) EndAfter(dur time.Duration) {
	if h == nil || h.ended {
		return
	}
	h.ended = true
	h.rec.Seconds = dur.Seconds()
	h.store.Record(h.rec)
	if h.rec.ParentID != "" {
		return
	}
	if n := slowNanos.Load(); n > 0 && dur >= time.Duration(n) {
		h.store.RecordSlow(SlowQuery{
			TraceID: h.rec.TraceID,
			SQL:     h.rec.SQL,
			Node:    h.rec.Node,
			Start:   h.rec.Start,
			Seconds: h.rec.Seconds,
			Rows:    h.rows,
		})
	}
}

// TreeRow is one span positioned in its trace's tree.
type TreeRow struct {
	Span  SpanRecord
	Depth int
}

// SpanTree orders spans depth-first from the roots, siblings by start time,
// assigning each its depth. Spans whose parent is missing (ring wrapped,
// unreachable node) are treated as roots so they still render.
func SpanTree(spans []SpanRecord) []TreeRow {
	spans = append([]SpanRecord(nil), spans...)
	sortByStart(spans)
	byID := make(map[string]bool, len(spans))
	for _, s := range spans {
		byID[s.SpanID] = true
	}
	children := map[string][]SpanRecord{}
	var roots []SpanRecord
	for _, s := range spans {
		if s.ParentID == "" || !byID[s.ParentID] {
			roots = append(roots, s)
		} else {
			children[s.ParentID] = append(children[s.ParentID], s)
		}
	}
	out := make([]TreeRow, 0, len(spans))
	var walk func(s SpanRecord, depth int)
	walk = func(s SpanRecord, depth int) {
		out = append(out, TreeRow{Span: s, Depth: depth})
		for _, c := range children[s.SpanID] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return out
}

// TreeText renders SpanTree as a flame-style indented listing, each line
// showing the span's duration and its share of the first root.
func TreeText(spans []SpanRecord) string {
	rows := SpanTree(spans)
	if len(rows) == 0 {
		return ""
	}
	total := rows[0].Span.Seconds
	if total <= 0 {
		total = 1
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s%-*s %12.6fs %5.1f%%\n", strings.Repeat("  ", r.Depth),
			28-2*r.Depth, r.Span.Name, r.Span.Seconds, 100*r.Span.Seconds/total)
	}
	return b.String()
}
