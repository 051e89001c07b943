package telemetry

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode"
)

// resetTracing restores every piece of process-wide tracing state after a
// test that touches it.
func resetTracing(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		SetSlowQueryThreshold(0)
		SetTracing(false)
		SetTraceNode("")
		Traces.Reset()
	})
}

func TestStartHopGating(t *testing.T) {
	resetTracing(t)

	// Off + no inbound context: no hop, and every method is a nil-safe no-op.
	h := StartHop(TraceContext{}, "query")
	if h != nil {
		t.Fatalf("StartHop with tracing off = %v, want nil", h)
	}
	h.SetSQL("SELECT 1")
	h.SetNode("n")
	h.Attr("k", "v")
	h.AttrInt("rows", 3)
	h.AttrFloat("lock_wait_seconds", 0.5)
	h.Fail(fmt.Errorf("boom"))
	h.End()
	if h.TraceID() != "" || h.Context().Valid() {
		t.Fatal("nil hop leaked a trace context")
	}
	if got := Traces.AllSpans(); len(got) != 0 {
		t.Fatalf("nil hop recorded spans: %+v", got)
	}

	// Off + inbound context: the hop joins the remote trace anyway, so a
	// node with tracing disabled still contributes to traces started
	// elsewhere.
	inbound := TraceContext{TraceID: "remotetrace", SpanID: "parent01"}
	h = StartHop(inbound, "server.query")
	if h == nil {
		t.Fatal("StartHop ignored an inbound trace context")
	}
	h.End()
	spans := Traces.Spans("remotetrace")
	if len(spans) != 1 || spans[0].ParentID != "parent01" || spans[0].Name != "server.query" {
		t.Fatalf("joined span = %+v", spans)
	}

	// On + no inbound context: a fresh root with W3C-sized ids.
	SetTracing(true)
	h = StartHop(TraceContext{}, "root")
	if h == nil {
		t.Fatal("StartHop with tracing forced on = nil")
	}
	tc := h.Context()
	if len(tc.TraceID) != 32 || len(tc.SpanID) != 16 {
		t.Fatalf("id sizes: trace=%q span=%q", tc.TraceID, tc.SpanID)
	}
	h.End()
	if got := Traces.Spans(tc.TraceID); len(got) != 1 || got[0].ParentID != "" {
		t.Fatalf("root span = %+v", got)
	}
}

func TestHopTreeAndAttrs(t *testing.T) {
	resetTracing(t)
	SetTracing(true)
	SetTraceNode("node-a")

	root := StartHop(TraceContext{}, "coordinator.scatter")
	root.SetSQL("SELECT * FROM ev")
	root.AttrInt("fanout", 2)
	child := StartHop(root.Context(), "shard 0")
	child.SetNode("node-b")
	child.AttrInt("rows", 7)
	child.End()
	root.End()

	spans := Traces.Spans(root.TraceID())
	if len(spans) != 2 {
		t.Fatalf("spans = %+v", spans)
	}
	// Ring order is completion order: the child ended first.
	c, r := spans[0], spans[1]
	if c.ParentID != r.SpanID {
		t.Fatalf("child parent = %q, want %q", c.ParentID, r.SpanID)
	}
	if c.Node != "node-b" || r.Node != "node-a" {
		t.Fatalf("nodes = %q / %q", c.Node, r.Node)
	}
	if r.SQL != "SELECT * FROM ev" {
		t.Fatalf("root sql = %q", r.SQL)
	}
	if got := c.AttrsText(); got != "rows=7" {
		t.Fatalf("child attrs = %q", got)
	}
	if got := r.AttrsText(); got != "fanout=2" {
		t.Fatalf("root attrs = %q", got)
	}
	edge := StartHop(root.Context(), "edge")
	edge.AttrInt("delta", math.MinInt64)
	edge.End()
	if got := Traces.Spans(root.TraceID())[2].AttrsText(); got != "delta=-9223372036854775808" {
		t.Fatalf("MinInt64 attr = %q", got)
	}
	if r.Seconds <= 0 || c.Seconds < 0 {
		t.Fatalf("durations: root=%v child=%v", r.Seconds, c.Seconds)
	}

	// End is idempotent: a second End must not duplicate the record.
	root.End()
	if got := Traces.Spans(root.TraceID()); len(got) != 3 {
		t.Fatalf("double End duplicated span: %d records", len(got))
	}
}

func TestSlowQueryLog(t *testing.T) {
	resetTracing(t)
	SetSlowQueryThreshold(time.Nanosecond)
	SetTraceNode("primary")

	root := StartHop(TraceContext{}, "db.select")
	root.SetSQL("SELECT slow")
	root.AttrInt("rows", 42)
	child := StartHop(root.Context(), "inner")
	child.End() // non-root hops never log slow entries
	root.End()

	slow := Traces.SlowQueries()
	if len(slow) != 1 {
		t.Fatalf("slow log = %+v", slow)
	}
	q := slow[0]
	if q.TraceID != root.TraceID() || q.SQL != "SELECT slow" || q.Rows != 42 || q.Node != "primary" {
		t.Fatalf("slow entry = %+v", q)
	}
	if q.Seconds <= 0 {
		t.Fatalf("slow seconds = %v", q.Seconds)
	}

	// A generous threshold keeps fast queries out of the log.
	SetSlowQueryThreshold(time.Hour)
	fast := StartHop(TraceContext{}, "db.select")
	fast.End()
	if got := Traces.SlowQueries(); len(got) != 1 {
		t.Fatalf("fast query logged slow: %+v", got)
	}
}

func TestTraceStoreRingEviction(t *testing.T) {
	store := NewTraceStore()
	for i := 0; i < spanRingSize+10; i++ {
		store.Record(SpanRecord{TraceID: "t", SpanID: strconv.Itoa(i)})
	}
	spans := store.AllSpans()
	if len(spans) != spanRingSize {
		t.Fatalf("span ring size = %d, want %d", len(spans), spanRingSize)
	}
	if spans[0].SpanID != "10" || spans[len(spans)-1].SpanID != strconv.Itoa(spanRingSize+9) {
		t.Fatalf("eviction order wrong: first=%s last=%s", spans[0].SpanID, spans[len(spans)-1].SpanID)
	}

	for i := 0; i < slowRingSize+5; i++ {
		store.RecordSlow(SlowQuery{TraceID: strconv.Itoa(i)})
	}
	slow := store.SlowQueries()
	if len(slow) != slowRingSize {
		t.Fatalf("slow ring size = %d, want %d", len(slow), slowRingSize)
	}
	if slow[0].TraceID != "5" || slow[len(slow)-1].TraceID != strconv.Itoa(slowRingSize+4) {
		t.Fatalf("slow eviction order wrong: first=%s last=%s", slow[0].TraceID, slow[len(slow)-1].TraceID)
	}
}

// TestRetainedTrace: a trace begun with StartTrace is kept whole however
// many spans it has and whatever else the ring is doing, reads back in
// start order, and leaves nothing behind once released.
func TestRetainedTrace(t *testing.T) {
	store := NewTraceStore()
	root := store.StartTrace("iokc campaign")
	const n = 3 * spanRingSize
	for i := 0; i < n; i++ {
		store.JoinHop(root.Context(), "unit "+strconv.Itoa(i)).End()
		store.JoinHop(TraceContext{TraceID: "other"}, "db.select").End()
	}
	root.End()

	if got := store.AllSpans(); len(got) != spanRingSize || got[0].TraceID != "other" {
		t.Fatalf("ring holds %d spans, first of trace %q; the retained trace leaked into it", len(got), got[0].TraceID)
	}
	if got := store.Spans(root.TraceID()); len(got) != n+1 {
		t.Fatalf("Spans sees %d of the retained trace, want %d", len(got), n+1)
	}
	spans := store.Release(root.TraceID())
	if len(spans) != n+1 || spans[0].Name != "iokc campaign" {
		t.Fatalf("released %d spans, first %q", len(spans), spans[0].Name)
	}
	for i, s := range spans[1:] {
		if s.Name != "unit "+strconv.Itoa(i) || s.ParentID != spans[0].SpanID {
			t.Fatalf("span %d = %+v", i+1, s)
		}
	}
	if got := store.Spans(root.TraceID()); len(got) != 0 {
		t.Fatalf("%d spans left after Release", len(got))
	}
	// Once released the id is an ordinary trace again: ring-bound.
	store.JoinHop(root.Context(), "late").End()
	if got := store.Release(root.TraceID()); len(got) != 0 {
		t.Fatalf("released trace still retained: %+v", got)
	}
}

func TestAttrsRoundTrip(t *testing.T) {
	rec := SpanRecord{Attrs: []Attr{
		{Key: "rows", Value: "4"},
		{Key: "error", Value: "kdb: no such table t"},
		{Key: "plan", Value: `index(a="x")`},
		{Key: "empty", Value: ""},
		{Key: "path", Value: `C:\tmp`},
	}}
	text := rec.AttrsText()
	want := `rows=4 error="kdb: no such table t" plan="index(a=\"x\")" empty= path=C:\tmp`
	if text != want {
		t.Fatalf("AttrsText = %s\nwant        %s", text, want)
	}
	if got := ParseAttrs(text); !reflect.DeepEqual(got, rec.Attrs) {
		t.Fatalf("ParseAttrs = %+v", got)
	}
	// What a peer from before the quoting emits parses as it always did:
	// whitespace-split fields, cut at the first '=', the rest dropped.
	legacy := ParseAttrs("rows=4  path=scan error=kdb: no such k=a=b")
	wantLegacy := []Attr{{"rows", "4"}, {"path", "scan"}, {"error", "kdb:"}, {"k", "a=b"}}
	if !reflect.DeepEqual(legacy, wantLegacy) {
		t.Fatalf("legacy parse = %+v", legacy)
	}
	// An unterminated quote is not an error either: the value is taken bare.
	if got := ParseAttrs(`k="open v=1`); !reflect.DeepEqual(got, []Attr{{"k", `"open`}, {"v", "1"}}) {
		t.Fatalf("unterminated quote parse = %+v", got)
	}
}

// FuzzParseAttrs: any key=value pair round-trips through the text form, and
// arbitrary text parses without panicking to something that round-trips.
func FuzzParseAttrs(f *testing.F) {
	f.Add("error", "kdb: no such table t", `rows=4 plan="index(a)" junk k=`)
	f.Add("k", `"`, `k="unterminated`)
	f.Add("k", "a=b", "=v  \t x=\"\\q\"y")
	f.Fuzz(func(t *testing.T, key, value, raw string) {
		if key != "" && !strings.ContainsAny(key, "=") && strings.IndexFunc(key, unicode.IsSpace) < 0 {
			in := []Attr{{Key: key, Value: value}, {Key: "rows", Value: "1"}}
			if got := ParseAttrs(SpanRecord{Attrs: in}.AttrsText()); !reflect.DeepEqual(got, in) {
				t.Fatalf("round trip of %+v = %+v", in, got)
			}
		}
		parsed := ParseAttrs(raw)
		if again := ParseAttrs(SpanRecord{Attrs: parsed}.AttrsText()); !reflect.DeepEqual(again, parsed) {
			t.Fatalf("ParseAttrs(%q) = %+v, re-parsed as %+v", raw, parsed, again)
		}
	})
}

// FuzzParseTraceArtifact: arbitrary input never panics, and whatever is
// accepted re-renders to a fixed point.
func FuzzParseTraceArtifact(f *testing.F) {
	f.Add(TraceArtifact("nightly sweep", SlowQuery{TraceID: "abc", SQL: "SELECT 1", Node: "n", Seconds: 1.5, Rows: 9},
		[]SpanRecord{{SpanID: "s1", Name: "db.select", Seconds: 1.5,
			Attrs: []Attr{{Key: "error", Value: "kdb: no such table t"}}}}))
	f.Add([]byte("# iokc-trace run=\"a b\" trace_id=t\nsql `x`\nspan id=1 attrs=\"k=\\\"v w\\\"\"\n"))
	f.Add([]byte("# iokc-trace\nspan name=bare id=\"i d\" parent== seconds=NaN attrs=k"))
	f.Fuzz(func(t *testing.T, data []byte) {
		run, slow, spans, err := ParseTraceArtifact(data)
		if err != nil {
			return
		}
		first := TraceArtifact(run, slow, spans)
		run, slow, spans, err = ParseTraceArtifact(first)
		if err != nil {
			t.Fatalf("re-rendered artifact rejected: %v\n%s", err, first)
		}
		if second := TraceArtifact(run, slow, spans); !bytes.Equal(first, second) {
			t.Fatalf("not a fixed point:\n%s\nthen:\n%s", first, second)
		}
	})
}

func TestTraceArtifactRoundTrip(t *testing.T) {
	slow := SlowQuery{
		TraceID: "abc123",
		SQL:     `SELECT * FROM ev WHERE note = "x"`,
		Node:    "coordinator",
		Start:   time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
		Seconds: 1.5,
		Rows:    9,
	}
	spans := []SpanRecord{
		{TraceID: "abc123", SpanID: "s1", Name: "coordinator.scatter", Node: "coordinator",
			Start: slow.Start, Seconds: 1.5, SQL: slow.SQL,
			Attrs: []Attr{{Key: "fanout", Value: "2"}, {Key: "rows", Value: "9"}}},
		{TraceID: "abc123", SpanID: "s2", ParentID: "s1", Name: "shard 0", Node: "shard-0",
			Start: slow.Start, Seconds: 0.7, Attrs: []Attr{{Key: "rows", Value: "5"}}},
	}
	data := TraceArtifact("nightly", slow, spans)
	if !strings.HasPrefix(string(data), TraceArtifactPrefix) {
		t.Fatalf("artifact header: %q", data)
	}
	run, gotSlow, gotSpans, err := ParseTraceArtifact(data)
	if err != nil {
		t.Fatalf("ParseTraceArtifact: %v", err)
	}
	if run != "nightly" || gotSlow.TraceID != "abc123" || gotSlow.SQL != slow.SQL || gotSlow.Rows != 9 {
		t.Fatalf("run=%q slow=%+v", run, gotSlow)
	}
	if len(gotSpans) != 2 {
		t.Fatalf("spans = %+v", gotSpans)
	}
	if gotSpans[0].Name != "coordinator.scatter" || gotSpans[0].AttrsText() != "fanout=2 rows=9" {
		t.Fatalf("span[0] = %+v", gotSpans[0])
	}
	if gotSpans[1].ParentID != "s1" || gotSpans[1].Node != "shard-0" {
		t.Fatalf("span[1] = %+v", gotSpans[1])
	}
	if _, _, _, err := ParseTraceArtifact([]byte("not a trace")); err == nil {
		t.Fatal("ParseTraceArtifact accepted junk")
	}
}

// A failed hop's error text — spaces, colons, quotes and all — and a run
// name with a space survive the artifact, where whitespace-split attrs used
// to keep only "error=kdb:".
func TestTraceArtifactKeepsErrorText(t *testing.T) {
	store := NewTraceStore()
	h := store.StartTrace("db.select")
	h.AttrInt("rows", 0)
	h.Fail(fmt.Errorf(`kdb: no such table "t"`))
	spans := store.Release(h.TraceID())

	run, _, got, err := ParseTraceArtifact(TraceArtifact("nightly sweep", SlowQuery{TraceID: h.TraceID()}, spans))
	if err != nil {
		t.Fatal(err)
	}
	if run != "nightly sweep" {
		t.Errorf("run = %q", run)
	}
	want := []Attr{{"rows", "0"}, {"error", `kdb: no such table "t"`}}
	if len(got) != 1 || !reflect.DeepEqual(got[0].Attrs, want) {
		t.Fatalf("attrs = %+v, want %+v", got, want)
	}
}

func TestHistogramExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramBuckets("q_seconds", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.ObserveEx(0.05, "") // no trace id: observation counts, no exemplar
	if out := prom(r); strings.Contains(out, "trace_id") {
		t.Fatalf("exemplar emitted without a trace id:\n%s", out)
	}

	h.ObserveEx(0.5, "feedbeef")
	out := prom(r)
	want := `q_seconds_bucket{le="1"} 3 # {trace_id="feedbeef"} 0.5`
	if !strings.Contains(out, want) {
		t.Fatalf("exposition missing exemplar %q:\n%s", want, out)
	}
	// Only the bucket the exemplar falls into carries it.
	if n := strings.Count(out, "trace_id"); n != 1 {
		t.Fatalf("exemplar on %d bucket lines, want 1:\n%s", n, out)
	}

	snap := r.Snapshot()
	hv := snap.Histograms["q_seconds"]
	if hv.Exemplar == nil || hv.Exemplar.TraceID != "feedbeef" || hv.Exemplar.Value != 0.5 {
		t.Fatalf("snapshot exemplar = %+v", hv.Exemplar)
	}
}

// TestSnapshotWriteJSONGolden locks the sorted JSON exposition against a
// golden file: keys are emitted in sorted order so the output is
// deterministic and diffable.
func TestSnapshotWriteJSONGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label("kdb_plan_cache_total", "result", "miss")).Add(2)
	r.Counter(Label("kdb_plan_cache_total", "result", "hit")).Add(7)
	r.Counter("kdb_wal_flushes_total").Add(3)
	r.Gauge("campaign_active_workers").Set(4)
	h := r.HistogramBuckets("cycle_seconds", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.ObserveEx(0.005, "cafe01")

	// The exemplar's capture time is real data but not reproducible; pin it
	// so the golden file stays byte-stable.
	render := func() string {
		snap := r.Snapshot()
		if hv, ok := snap.Histograms["cycle_seconds"]; ok && hv.Exemplar != nil {
			ex := *hv.Exemplar
			ex.Unix = 1754650000
			hv.Exemplar = &ex
			snap.Histograms["cycle_seconds"] = hv
		}
		var b strings.Builder
		if err := snap.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	got := render()

	goldenPath := filepath.Join("testdata", "metrics_json.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("JSON exposition drifted from golden file:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// Determinism does not depend on insertion order: a second snapshot of
	// the same registry renders identically.
	if render() != got {
		t.Error("WriteJSON is not deterministic across snapshots")
	}
}
