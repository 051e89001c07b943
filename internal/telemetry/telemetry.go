// Package telemetry is the observability layer of the knowledge cycle: a
// concurrent metrics registry (counters, gauges, histograms with
// exponential buckets) and lightweight span tracing, stdlib-only, with
// Prometheus-text and JSON exposition.
//
// The hot paths are lock-free: counters and histogram buckets mutate with
// single atomic adds, gauges with a CAS loop over float64 bits. Metric
// handles are looked up (or created) once under a registry lock and then
// cached by the instrumented code, so steady-state recording never touches
// a map or a mutex. Every mutator is nil-safe — a nil *Counter, *Gauge,
// *Histogram, or *Span is a no-op — so instrumentation can be compiled in
// unconditionally and disabled by simply not wiring a registry.
//
// The registry can also be disabled at runtime (SetEnabled), which turns
// every recording into a single atomic load; the bench suite uses this to
// measure the telemetry on/off overhead.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry, or use Default for the process-wide registry every built-in
// instrumentation point records into.
type Registry struct {
	disabled atomic.Bool
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. The kdb engine, the campaign
// scheduler, and the HTTP middleware all record here unless given another
// registry explicitly.
func Default() *Registry { return defaultRegistry }

// SetEnabled turns recording on or off for every metric of the registry.
// Disabled recording costs one atomic load per call.
func (r *Registry) SetEnabled(on bool) {
	if r != nil {
		r.disabled.Store(!on)
	}
}

// Enabled reports whether the registry records.
func (r *Registry) Enabled() bool { return r != nil && !r.disabled.Load() }

// Label renders a metric name with one or more label pairs in canonical
// form: Label("x_total", "op", "write") == `x_total{op="write"}`. Pairs are
// emitted in the given order; call sites must use a fixed order so the same
// series maps to the same registry key.
func Label(name string, pairs ...string) string {
	if len(pairs) == 0 || len(pairs)%2 != 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(pairs[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	reg *Registry
	v   atomic.Int64
}

// Counter returns (creating on first use) the named counter. The name may
// carry labels rendered by Label.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{reg: r}
	r.counters[name] = c
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 || c.reg.disabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float metric that can go up and down.
type Gauge struct {
	reg *Registry
	v   atomic.Uint64 // float64 bits
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{reg: r}
	r.gauges[name] = g
	return g
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil || g.reg.disabled.Load() {
		return
	}
	g.v.Store(math.Float64bits(v))
}

// Add adds delta (which may be negative) with a CAS loop.
func (g *Gauge) Add(delta float64) {
	if g == nil || g.reg.disabled.Load() {
		return
	}
	for {
		old := g.v.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.v.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.v.Load())
}

// Histogram accumulates observations into exponential buckets. The hot
// path is two atomic adds plus one CAS (for the sum); bucket search is a
// short linear scan over the precomputed upper bounds.
type Histogram struct {
	reg    *Registry
	bounds []float64 // ascending upper bounds; implicit +Inf bucket at the end
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Int64
	ex     atomic.Pointer[Exemplar]
}

// Exemplar links a histogram to one recent traced observation, so a latency
// spike on a dashboard leads straight to the trace that caused it.
type Exemplar struct {
	Value   float64 `json:"value"`
	TraceID string  `json:"trace_id"`
	Unix    int64   `json:"unix"`
}

// DefaultBuckets covers 1µs .. ~67s in 26 exponential (factor-2) steps —
// wide enough for both kdb point queries and whole-campaign phases.
var DefaultBuckets = ExponentialBuckets(1e-6, 2, 26)

// ExponentialBuckets returns n upper bounds starting at start, each factor
// times the previous.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		return nil
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Histogram returns (creating on first use) the named histogram with
// DefaultBuckets.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramBuckets(name, DefaultBuckets)
}

// HistogramBuckets returns (creating on first use) the named histogram.
// bounds must be ascending; they are only consulted on first creation.
func (r *Registry) HistogramBuckets(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = &Histogram{
		reg:    r,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.hists[name] = h
	return h
}

// Observe records one value. Buckets follow the Prometheus le (less than
// or equal) convention: a value exactly equal to a bucket's upper bound
// lands in that bucket, deterministically — bucket i holds
// bounds[i-1] < v <= bounds[i]. NaN observations count toward the +Inf
// overflow bucket (they fit no finite bound), never a finite one.
func (h *Histogram) Observe(v float64) {
	if h == nil || h.reg.disabled.Load() {
		return
	}
	i := 0
	if math.IsNaN(v) {
		// NaN fails every v > bound comparison, which would silently file
		// it under the smallest bucket; route it to +Inf instead.
		i = len(h.bounds)
	} else {
		for i < len(h.bounds) && v > h.bounds[i] {
			i++
		}
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveEx records one value and, when traceID is non-empty, stores it as
// the histogram's exemplar (latest traced observation wins).
func (h *Histogram) ObserveEx(v float64, traceID string) {
	if h == nil || h.reg.disabled.Load() {
		return
	}
	h.Observe(v)
	if traceID != "" {
		h.ex.Store(&Exemplar{Value: v, TraceID: traceID, Unix: time.Now().Unix()})
	}
}

// Count returns the number of observations (0 on a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// HistogramValue is a consistent-enough snapshot of a histogram for
// exposition: per-bucket cumulative counts plus sum and count.
type HistogramValue struct {
	Bounds     []float64 `json:"bounds"` // upper bounds; last bucket is +Inf
	Cumulative []int64   `json:"cumulative"`
	Sum        float64   `json:"sum"`
	Count      int64     `json:"count"`
	Exemplar   *Exemplar `json:"exemplar,omitempty"`
}

// Quantile estimates the p-quantile (0 < p <= 1) from the bucket counts by
// linear interpolation within the bucket that crosses the target rank — the
// standard Prometheus histogram_quantile estimate. Observations in the +Inf
// bucket clamp to the highest finite bound. Returns 0 on an empty histogram.
func (v HistogramValue) Quantile(p float64) float64 {
	if v.Count == 0 || len(v.Cumulative) == 0 || math.IsNaN(p) {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(v.Count)
	for i, cum := range v.Cumulative {
		if float64(cum) < rank {
			continue
		}
		// Bucket i crosses the rank. Interpolate between its bounds.
		upper := math.Inf(1)
		if i < len(v.Bounds) {
			upper = v.Bounds[i]
		}
		if math.IsInf(upper, 1) {
			// Can't interpolate into +Inf; clamp to the last finite bound.
			if len(v.Bounds) > 0 {
				return v.Bounds[len(v.Bounds)-1]
			}
			return 0
		}
		lower := 0.0
		prev := int64(0)
		if i > 0 {
			lower = v.Bounds[i-1]
			prev = v.Cumulative[i-1]
		}
		inBucket := float64(cum - prev)
		if inBucket <= 0 {
			return upper
		}
		return lower + (upper-lower)*(rank-float64(prev))/inBucket
	}
	if len(v.Bounds) > 0 {
		return v.Bounds[len(v.Bounds)-1]
	}
	return 0
}

func (h *Histogram) snapshot() HistogramValue {
	v := HistogramValue{Bounds: h.bounds, Sum: h.Sum(), Count: h.Count(), Exemplar: h.ex.Load()}
	v.Cumulative = make([]int64, len(h.counts))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		v.Cumulative[i] = cum
	}
	return v
}

// Snapshot is a point-in-time copy of a registry's contents, used by both
// expositions and by tests.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters"`
	Gauges     map[string]float64        `json:"gauges"`
	Histograms map[string]HistogramValue `json:"histograms"`
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramValue{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// splitName separates a Label-rendered series name into its base name and
// the inner label text ("" when unlabeled).
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// WriteProm renders the snapshot in the Prometheus text exposition format,
// deterministically ordered by series name.
func (s Snapshot) WriteProm(w *strings.Builder) {
	typed := map[string]string{}
	var names []string
	add := func(name, kind string) {
		base, _ := splitName(name)
		if _, ok := typed[base]; !ok {
			typed[base] = kind
		}
		names = append(names, name)
	}
	for name := range s.Counters {
		add(name, "counter")
	}
	for name := range s.Gauges {
		add(name, "gauge")
	}
	for name := range s.Histograms {
		add(name, "histogram")
	}
	sort.Strings(names)
	seenType := map[string]bool{}
	for _, name := range names {
		base, labels := splitName(name)
		if !seenType[base] {
			seenType[base] = true
			fmt.Fprintf(w, "# TYPE %s %s\n", base, typed[base])
		}
		if v, ok := s.Counters[name]; ok {
			fmt.Fprintf(w, "%s %d\n", name, v)
			continue
		}
		if v, ok := s.Gauges[name]; ok {
			fmt.Fprintf(w, "%s %s\n", name, formatFloat(v))
			continue
		}
		h := s.Histograms[name]
		exBucket := -1
		if h.Exemplar != nil {
			exBucket = 0
			if math.IsNaN(h.Exemplar.Value) {
				exBucket = len(h.Bounds)
			} else {
				for exBucket < len(h.Bounds) && h.Exemplar.Value > h.Bounds[exBucket] {
					exBucket++
				}
			}
		}
		for i, bound := range h.Bounds {
			fmt.Fprintf(w, "%s %d%s\n", bucketSeries(base, labels, formatFloat(bound)), h.Cumulative[i], exemplarSuffix(h.Exemplar, exBucket == i))
		}
		fmt.Fprintf(w, "%s %d%s\n", bucketSeries(base, labels, "+Inf"), h.Cumulative[len(h.Cumulative)-1], exemplarSuffix(h.Exemplar, exBucket == len(h.Bounds)))
		fmt.Fprintf(w, "%s_sum%s %s\n", base, braced(labels), formatFloat(h.Sum))
		fmt.Fprintf(w, "%s_count%s %d\n", base, braced(labels), h.Count)
	}
}

// exemplarSuffix renders the OpenMetrics exemplar annotation for the bucket
// the exemplar value falls into ("" elsewhere, so untraced registries keep
// byte-identical exposition).
func exemplarSuffix(ex *Exemplar, here bool) string {
	if ex == nil || !here {
		return ""
	}
	return fmt.Sprintf(` # {trace_id="%s"} %s %d`, escapeLabel(ex.TraceID), formatFloat(ex.Value), ex.Unix)
}

func bucketSeries(base, labels, le string) string {
	if labels == "" {
		return fmt.Sprintf(`%s_bucket{le="%s"}`, base, le)
	}
	return fmt.Sprintf(`%s_bucket{%s,le="%s"}`, base, labels, le)
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteJSON renders the snapshot as indented JSON with every object's keys
// in sorted order, so /metrics.json is deterministic and golden-file
// testable. (encoding/json happens to sort map keys today, but this makes
// the ordering an explicit contract rather than an implementation detail.)
func (s Snapshot) WriteJSON(w io.Writer) error {
	var b strings.Builder
	b.WriteString("{\n  \"counters\": {")
	names := sortedKeys(s.Counters)
	for i, name := range names {
		writeJSONKey(&b, i, name)
		fmt.Fprintf(&b, "%d", s.Counters[name])
	}
	closeJSONSection(&b, len(names))
	b.WriteString(",\n  \"gauges\": {")
	names = sortedKeys(s.Gauges)
	for i, name := range names {
		writeJSONKey(&b, i, name)
		v, err := json.Marshal(s.Gauges[name])
		if err != nil {
			return err
		}
		b.Write(v)
	}
	closeJSONSection(&b, len(names))
	b.WriteString(",\n  \"histograms\": {")
	names = sortedKeys(s.Histograms)
	for i, name := range names {
		writeJSONKey(&b, i, name)
		v, err := json.Marshal(s.Histograms[name])
		if err != nil {
			return err
		}
		b.Write(v)
	}
	closeJSONSection(&b, len(names))
	b.WriteString("\n}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func writeJSONKey(b *strings.Builder, i int, name string) {
	if i > 0 {
		b.WriteByte(',')
	}
	b.WriteString("\n    ")
	key, _ := json.Marshal(name)
	b.Write(key)
	b.WriteString(": ")
}

func closeJSONSection(b *strings.Builder, n int) {
	if n > 0 {
		b.WriteString("\n  ")
	}
	b.WriteByte('}')
}
