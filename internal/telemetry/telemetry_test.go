package telemetry

import (
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("widgets_total")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("widgets_total") != c {
		t.Fatalf("counter lookup did not return the same handle")
	}

	g := r.Gauge("depth")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}

	h := r.HistogramBuckets("lat_seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("hist count = %d, want 4", h.Count())
	}
	if h.Sum() != 5.555 {
		t.Fatalf("hist sum = %v, want 5.555", h.Sum())
	}
	snap := r.Snapshot().Histograms["lat_seconds"]
	want := []int64{1, 2, 3, 4}
	for i, c := range snap.Cumulative {
		if c != want[i] {
			t.Fatalf("cumulative[%d] = %d, want %d", i, c, want[i])
		}
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.SetEnabled(true)
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z").Observe(1)
	// An untraced hop is nil, and so is every hop joined under it.
	h := JoinHop(TraceContext{}, "campaign")
	c := JoinHop(h.Context(), "unit 0")
	c.EndAfter(time.Second)
	c.End()
	h.End()
	if h != nil || c != nil || h.Context().Valid() || TreeText(nil) != "" {
		t.Fatal("untraced hop not inert")
	}
	if got := r.Snapshot(); len(got.Counters) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", got)
	}
}

func TestSetEnabled(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	r.SetEnabled(false)
	c.Inc()
	r.Gauge("g").Set(9)
	r.Histogram("h").Observe(1)
	if c.Value() != 0 || r.Gauge("g").Value() != 0 || r.Histogram("h").Count() != 0 {
		t.Fatal("disabled registry still recorded")
	}
	r.SetEnabled(true)
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("re-enabled registry did not record")
	}
}

func TestLabel(t *testing.T) {
	if got := Label("x_total", "op", "write"); got != `x_total{op="write"}` {
		t.Fatalf("Label = %q", got)
	}
	if got := Label("x", "a", "1", "b", `q"uo\te`); got != `x{a="1",b="q\"uo\\te"}` {
		t.Fatalf("Label escape = %q", got)
	}
	if got := Label("x", "odd"); got != "x" {
		t.Fatalf("odd pairs should return base name, got %q", got)
	}
}

// prom renders r in the Prometheus text format, as /metrics does.
func prom(r *Registry) string {
	var b strings.Builder
	r.Snapshot().WriteProm(&b)
	return b.String()
}

func TestPromExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label("reqs_total", "path", "/a")).Add(3)
	r.Counter(Label("reqs_total", "path", "/b")).Add(1)
	r.Gauge("workers").Set(4)
	h := r.HistogramBuckets(Label("lat_seconds", "path", "/a"), []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(1) // exactly on a bound: le-inclusive, lands in the le="1" bucket
	nan := r.HistogramBuckets("odd_seconds", []float64{0.1, 1})
	nan.Observe(math.NaN()) // NaN counts toward +Inf only

	out := prom(r)
	for _, want := range []string{
		"# TYPE reqs_total counter",
		`reqs_total{path="/a"} 3`,
		`reqs_total{path="/b"} 1`,
		"# TYPE workers gauge",
		"workers 4",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{path="/a",le="0.1"} 1`,
		`lat_seconds_bucket{path="/a",le="1"} 2`,
		`lat_seconds_bucket{path="/a",le="+Inf"} 2`,
		`lat_seconds_sum{path="/a"} 1.05`,
		`lat_seconds_count{path="/a"} 2`,
		`odd_seconds_bucket{le="0.1"} 0`,
		`odd_seconds_bucket{le="1"} 0`,
		`odd_seconds_bucket{le="+Inf"} 1`,
		`odd_seconds_count 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE reqs_total") != 1 {
		t.Fatalf("duplicate TYPE lines:\n%s", out)
	}
}

func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(float64(j) * 1e-5)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 4000 {
		t.Fatalf("counter = %d, want 4000", got)
	}
	if got := r.Gauge("g").Value(); got != 4000 {
		t.Fatalf("gauge = %v, want 4000", got)
	}
	if got := r.Histogram("h").Count(); got != 4000 {
		t.Fatalf("hist count = %d, want 4000", got)
	}
}

// TestSpanTree: concurrent workers open unit hops under one shared parent
// (the campaign scheduler's shape); the assembler rebuilds the tree from the
// id links, whatever order the hops completed in.
func TestSpanTree(t *testing.T) {
	store := NewTraceStore()
	root := store.StartTrace("campaign")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u := store.JoinHop(root.Context(), "unit "+strconv.Itoa(i))
			g := store.JoinHop(u.Context(), "generation")
			time.Sleep(time.Millisecond)
			g.End()
			u.End()
		}(i)
	}
	wg.Wait()
	root.End()

	rows := SpanTree(store.Release(root.TraceID()))
	if len(rows) != 9 || rows[0].Span.Name != "campaign" || rows[0].Depth != 0 {
		t.Fatalf("tree = %+v", rows)
	}
	if rows[0].Span.Seconds <= 0 {
		t.Fatalf("root duration = %v", rows[0].Span.Seconds)
	}
	for i := 1; i < len(rows); i += 2 {
		u, g := rows[i], rows[i+1]
		if !strings.HasPrefix(u.Span.Name, "unit ") || u.Depth != 1 || u.Span.ParentID != rows[0].Span.SpanID {
			t.Fatalf("row %d = %+v, want a unit under the root", i, u)
		}
		if g.Span.Name != "generation" || g.Depth != 2 || g.Span.ParentID != u.Span.SpanID {
			t.Fatalf("row %d = %+v, want generation under %q", i+1, g, u.Span.Name)
		}
	}

	// A span whose parent is missing still renders, as a root.
	orphan := SpanTree([]SpanRecord{{SpanID: "a", ParentID: "gone", Name: "orphan"}})
	if len(orphan) != 1 || orphan[0].Depth != 0 {
		t.Fatalf("orphan tree = %+v", orphan)
	}
}

func TestTreeText(t *testing.T) {
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	// Completion order (children first), as a store hands spans back.
	text := TreeText([]SpanRecord{
		{SpanID: "g", ParentID: "u", Name: "generation", Start: t0.Add(2 * time.Millisecond), Seconds: 0.25},
		{SpanID: "u", ParentID: "r", Name: "unit 0", Start: t0.Add(time.Millisecond), Seconds: 0.5},
		{SpanID: "r", Name: "campaign sweep", Start: t0, Seconds: 1},
	})
	want := "campaign sweep                   1.000000s 100.0%\n" +
		"  unit 0                         0.500000s  50.0%\n" +
		"    generation                   0.250000s  25.0%\n"
	if text != want {
		t.Fatalf("tree text:\n%s\nwant:\n%s", text, want)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	store := NewTraceStore()
	h := store.StartTrace("x")
	h.End()
	first := store.Spans(h.TraceID())
	time.Sleep(2 * time.Millisecond)
	h.End()
	h.EndAfter(time.Hour)
	spans := store.Release(h.TraceID())
	if len(first) != 1 || len(spans) != 1 || spans[0].Seconds != first[0].Seconds {
		t.Fatalf("a later End re-recorded the span: %+v, first %+v", spans, first)
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	in := []PhaseTiming{
		{Phase: "persistence", Unit: 1, Seconds: 0.25},
		{Phase: "generation", Unit: 0, Seconds: 0.125},
		{Phase: "generation", Unit: 1, Seconds: 0.5},
	}
	data := Artifact("sweep 7", in)
	if !strings.HasPrefix(string(data), ArtifactPrefix+" run=sweep-7\n") {
		t.Fatalf("artifact header: %q", data)
	}
	run, out, err := ParseArtifact(data)
	if err != nil {
		t.Fatalf("ParseArtifact: %v", err)
	}
	if run != "sweep-7" || len(out) != 3 {
		t.Fatalf("run=%q out=%+v", run, out)
	}
	// Sorted by phase order then unit: generation/0, generation/1, persistence/1.
	if out[0].Phase != "generation" || out[0].Unit != 0 || out[0].Seconds != 0.125 {
		t.Fatalf("out[0] = %+v", out[0])
	}
	if out[2].Phase != "persistence" || out[2].Unit != 1 || out[2].Seconds != 0.25 {
		t.Fatalf("out[2] = %+v", out[2])
	}
	if _, _, err := ParseArtifact([]byte("not an artifact")); err == nil {
		t.Fatal("ParseArtifact accepted junk")
	}
}

func TestHandlersAndMiddleware(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Inc()

	rec := httptest.NewRecorder()
	Handler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "c_total 1") {
		t.Fatalf("prom handler: %s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	JSONHandler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics.json", nil))
	if !strings.Contains(rec.Body.String(), `"c_total": 1`) {
		t.Fatalf("json handler: %s", rec.Body.String())
	}
}

// TestHistogramBucketBoundaries pins the le (less-than-or-equal) bucket
// convention: a value exactly equal to an exponential bucket's upper bound
// lands in that bucket, not the next one, and NaN lands in +Inf — both
// deterministic and documented on Observe.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := ExponentialBuckets(1, 2, 4) // 1, 2, 4, 8
	r := NewRegistry()
	h := r.HistogramBuckets("b", bounds)
	cases := []struct {
		v      float64
		bucket int // index into the non-cumulative counts
	}{
		{0.5, 0}, // below the first bound
		{1, 0},   // exactly the first bound: le-inclusive
		{2, 1},   // exactly an interior bound
		{2.1, 2},
		{8, 3},            // exactly the last finite bound
		{8.0001, 4},       // just over: overflow bucket
		{math.NaN(), 4},   // NaN: overflow bucket, never a finite one
		{math.Inf(1), 4},  // +Inf: overflow bucket
		{math.Inf(-1), 0}, // -Inf: first bucket
	}
	want := make([]int64, len(bounds)+1)
	for _, c := range cases {
		h.Observe(c.v)
		want[c.bucket]++
	}
	snap := r.Snapshot().Histograms["b"]
	var cum int64
	for i := range want {
		cum += want[i]
		if snap.Cumulative[i] != cum {
			t.Errorf("cumulative[%d] = %d, want %d", i, snap.Cumulative[i], cum)
		}
	}
	if snap.Count != int64(len(cases)) {
		t.Errorf("count = %d, want %d", snap.Count, len(cases))
	}
}

func TestExponentialBuckets(t *testing.T) {
	b := ExponentialBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("buckets = %v", b)
		}
	}
	if ExponentialBuckets(0, 2, 4) != nil || ExponentialBuckets(1, 1, 4) != nil || ExponentialBuckets(1, 2, 0) != nil {
		t.Fatal("invalid bucket params should return nil")
	}
}
