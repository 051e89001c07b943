package campaign

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/knowledge"
	"repro/internal/schema"
	"repro/internal/telemetry"
)

func TestCampaignSelfObservePersistsTelemetry(t *testing.T) {
	st, err := schema.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	met := telemetry.NewRegistry()
	s := &Scheduler{Store: st, Workers: 2, BatchSize: 2, Metrics: met, SelfObserve: true}
	res, err := s.Run(context.Background(), sweepSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.TelemetryID == 0 {
		t.Fatal("SelfObserve did not persist a telemetry object")
	}
	o, err := st.LoadObject(res.TelemetryID)
	if err != nil {
		t.Fatal(err)
	}
	if o.Source != knowledge.SourceTelemetry {
		t.Errorf("telemetry object source = %q", o.Source)
	}
	if o.Pattern["run"] != "sweep" {
		t.Errorf("telemetry object run = %q", o.Pattern["run"])
	}
	// One generation and one extraction timing per unit, plus at least one
	// persistence timing per ingest batch.
	if got := len(o.ResultsFor("generation")); got != 4 {
		t.Errorf("generation timings = %d, want 4", got)
	}
	if got := len(o.ResultsFor("extraction")); got != 4 {
		t.Errorf("extraction timings = %d, want 4", got)
	}
	if got := len(o.ResultsFor("persistence")); got == 0 {
		t.Error("no persistence timings")
	}

	snap := met.Snapshot()
	if got := snap.Counters[telemetry.Label("campaign_units_total", "status", "ok")]; got != 4 {
		t.Errorf("campaign_units_total{ok} = %d, want 4", got)
	}
	if got := snap.Histograms["campaign_queue_wait_seconds"].Count; got != 4 {
		t.Errorf("queue wait observations = %d, want 4", got)
	}
	if got := snap.Histograms[telemetry.Label("cycle_phase_seconds", "phase", "generation")].Count; got != 4 {
		t.Errorf("generation phase observations = %d, want 4", got)
	}
	if snap.Histograms["campaign_ingest_batch_units"].Count == 0 {
		t.Error("no ingest batch observations")
	}
}

// TestCampaignTraceSpans: a campaign joined to a caller's trace records
// "campaign NAME" under the caller's hop, one "unit N" hop per unit with
// its phase hops as children, and the persistence hops beside the units.
func TestCampaignTraceSpans(t *testing.T) {
	st, err := schema.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	root := telemetry.Traces.StartTrace("cli")
	s := &Scheduler{Store: st, Workers: 4, Trace: root.Context(), Metrics: telemetry.NewRegistry()}
	if _, err := s.Run(context.Background(), sweepSpec(t)); err != nil {
		t.Fatal(err)
	}
	root.End()
	rows := telemetry.SpanTree(telemetry.Traces.Release(root.TraceID()))
	if len(rows) < 2 || rows[0].Span.Name != "cli" || rows[1].Span.Name != "campaign sweep" || rows[1].Depth != 1 {
		t.Fatalf("trace tree = %+v", rows)
	}
	campaignID := rows[1].Span.SpanID
	units, persistence := 0, 0
	for i, r := range rows[2:] {
		switch {
		case r.Depth == 2 && r.Span.Name == "persistence":
			persistence++
		case r.Depth == 2:
			if _, ok := parseUnitName(r.Span.Name); !ok || r.Span.ParentID != campaignID {
				t.Errorf("unexpected hop under the campaign: %+v", r.Span)
			}
			units++
			// Depth-first order: a unit's phase children follow it directly.
			next := rows[2+i+1:]
			if len(next) < 2 || next[0].Span.Name != "generation" || next[1].Span.Name != "extraction" ||
				next[0].Span.ParentID != r.Span.SpanID || next[1].Span.ParentID != r.Span.SpanID {
				t.Errorf("unit hop %q lacks its phase children", r.Span.Name)
			}
		case r.Depth != 3:
			t.Errorf("hop %q at depth %d", r.Span.Name, r.Depth)
		}
	}
	if units != 4 || persistence == 0 {
		t.Errorf("unit hops = %d (want 4), persistence hops = %d", units, persistence)
	}
}

func parseUnitName(name string) (int, bool) {
	var n int
	_, err := fmt.Sscanf(name, "unit %d", &n)
	return n, err == nil
}

// timingUnits lists, per phase, the unit of every collected timing in list
// order.
func timingUnits(timings []telemetry.PhaseTiming) map[string][]int {
	out := map[string][]int{}
	for _, tm := range timings {
		out[tm.Phase] = append(out[tm.Phase], tm.Unit)
	}
	return out
}

// TestCampaignPhaseTimings: the scheduler's collected list attributes
// generation and extraction to their unit and persistence, which runs on
// the collector outside any unit, to -1.
func TestCampaignPhaseTimings(t *testing.T) {
	res, _ := runSpec(t, sweepSpec(t), 3, 2)
	got := timingUnits(res.Timings)
	want := map[string][]int{
		"generation":  {0, 1, 2, 3},
		"extraction":  {0, 1, 2, 3},
		"persistence": {-1, -1}, // 4 units in batches of 2
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("timings by phase = %v, want %v", got, want)
	}
	for _, tm := range res.Timings {
		if tm.Seconds < 0 {
			t.Errorf("negative timing %+v", tm)
		}
	}
}

// TestCampaignPhaseTimingsEdgeCases: a campaign that never ran an attempt
// has no timings and persists no telemetry object; every retry attempt is
// its own timing, under its own unit, and a phase an attempt never reached
// has none.
func TestCampaignPhaseTimingsEdgeCases(t *testing.T) {
	st, err := schema.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	good := iorGen(t, "ior -a posix -b 1m -t 256k -s 2 -i 1 -o /scratch/w")

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	s := &Scheduler{Store: st, Workers: 2, Metrics: telemetry.NewRegistry(), SelfObserve: true}
	res, err := s.Run(cancelled, FromGenerators("never-ran", 7, []core.Generator{good, good}))
	if !errors.Is(err, context.Canceled) || res == nil {
		t.Fatalf("cancelled campaign: res=%v err=%v", res, err)
	}
	if len(res.Timings) != 0 || res.TelemetryID != 0 {
		t.Fatalf("cancelled campaign has timings %+v, telemetry object %d", res.Timings, res.TelemetryID)
	}

	retried := &flakyGenerator{inner: good, failures: 2}
	failing := &flakyGenerator{failures: 1 << 30}
	s = &Scheduler{Store: st, Workers: 2, MaxAttempts: 3, Backoff: time.Millisecond,
		Metrics: telemetry.NewRegistry(), SelfObserve: true}
	res, err = s.Run(context.Background(), FromGenerators("retries", 7, []core.Generator{good, retried, failing}))
	if err != nil {
		t.Fatal(err)
	}
	got := timingUnits(res.Timings)
	want := map[string][]int{
		"generation":  {0, 1, 1, 1, 2, 2, 2},
		"extraction":  {0, 1},
		"persistence": {-1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("timings by phase = %v, want %v", got, want)
	}
	o, err := st.LoadObject(res.TelemetryID)
	if err != nil {
		t.Fatal(err)
	}
	for phase, units := range want {
		if n := len(o.ResultsFor(phase)); n != len(units) {
			t.Errorf("persisted %s timings = %d, want %d", phase, n, len(units))
		}
	}
}

// stubGenerator emits one tiny artifact the telemetry extractor accepts, so
// a campaign of thousands of units runs in well under a second.
type stubGenerator struct{}

func (stubGenerator) Name() string { return "stub" }

func (stubGenerator) Generate(*core.Context) ([]core.Artifact, error) {
	return []core.Artifact{{Name: "stub", Data: telemetry.Artifact("stub",
		[]telemetry.PhaseTiming{{Phase: "generation", Unit: 0, Seconds: 0.001}})}}, nil
}

// TestCampaignSelfObserveBeyondSpanRing: self-observation does not read a
// span store back. 1,400 units make 4,200 unit and phase hops — joined
// here to an ordinary ring-bound trace, so the 4,096-span ring wraps — and
// the persisted telemetry still holds exactly one generation and one
// extraction timing per unit.
func TestCampaignSelfObserveBeyondSpanRing(t *testing.T) {
	t.Cleanup(telemetry.Traces.Reset)
	telemetry.Traces.Reset()
	const units = 1400
	gens := make([]core.Generator, units)
	for i := range gens {
		gens[i] = stubGenerator{}
	}
	st, err := schema.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := &Scheduler{Store: st, Workers: 4, BatchSize: 64, Metrics: telemetry.NewRegistry(), SelfObserve: true,
		Trace: telemetry.TraceContext{TraceID: "ring-bound"}}
	res, err := s.Run(context.Background(), FromGenerators("wide", 1, gens))
	if err != nil {
		t.Fatal(err)
	}
	kept := telemetry.Traces.Spans("ring-bound")
	if hops := 3*units + (units+63)/64 + 1; len(kept) >= hops {
		t.Fatalf("ring kept all %d hops; the campaign is too small to wrap it", hops)
	}
	byPhase := timingUnits(res.Timings)
	for _, phase := range []string{"generation", "extraction"} {
		got := byPhase[phase]
		if len(got) != units {
			t.Fatalf("%s timings = %d, want %d", phase, len(got), units)
		}
		for i, u := range got {
			if u != i {
				t.Fatalf("%s timing %d belongs to unit %d", phase, i, u)
			}
		}
	}
	o, err := st.LoadObject(res.TelemetryID)
	if err != nil {
		t.Fatal(err)
	}
	if g, e := len(o.ResultsFor("generation")), len(o.ResultsFor("extraction")); g != units || e != units {
		t.Errorf("persisted timings: generation %d, extraction %d, want %d each", g, e, units)
	}
}

// TestUntracedCampaignStartsNoTrace: the scheduler joins traces, it never
// starts one. In a serving process with the slow-query log armed (so every
// storage call does start a trace) an untraced campaign puts no campaign,
// unit or phase span in the ring and nothing but statements in the log.
func TestUntracedCampaignStartsNoTrace(t *testing.T) {
	t.Cleanup(func() {
		telemetry.SetSlowQueryThreshold(0)
		telemetry.Traces.Reset()
	})
	telemetry.Traces.Reset()
	telemetry.SetSlowQueryThreshold(time.Nanosecond) // every root hop is slow
	res, _ := runSpec(t, sweepSpec(t), 2, 2)
	telemetry.SetSlowQueryThreshold(0)
	if len(res.Timings) == 0 {
		t.Fatal("campaign collected no timings")
	}
	spans := telemetry.Traces.AllSpans()
	if len(spans) == 0 {
		t.Fatal("the armed log traced no storage call; the test proves nothing")
	}
	for _, sp := range spans {
		if !strings.HasPrefix(sp.Name, "db.") {
			t.Fatalf("campaign recorded span %q without a trace to join", sp.Name)
		}
	}
	for _, q := range telemetry.Traces.SlowQueries() {
		if q.SQL == "" {
			t.Fatalf("slow-query log holds a non-statement entry: %+v", q)
		}
	}
}

// Retries must stay reproducible with jittered backoff: the delay is a
// pure function of (unit seed, attempt), so two identical flaky campaigns
// produce byte-identical knowledge.
func TestCampaignRetryJitterDeterministic(t *testing.T) {
	runFlaky := func() *schema.Store {
		st, err := schema.Open("")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		gen := &flakyGenerator{inner: iorGen(t, "ior -a posix -b 1m -t 256k -s 2 -i 1 -o /scratch/f"), failures: 1}
		s := &Scheduler{Store: st, Workers: 2, MaxAttempts: 3, Backoff: time.Millisecond}
		res, err := s.Run(context.Background(), FromGenerators("flaky", 7, []core.Generator{gen, gen}))
		if err != nil {
			t.Fatal(err)
		}
		if res.OK != 2 {
			t.Fatalf("result = %+v", res)
		}
		return st
	}
	if d1, d2 := dumpKnowledge(t, runFlaky()), dumpKnowledge(t, runFlaky()); d1 != d2 {
		t.Errorf("retried campaigns diverged:\n--- run1 ---\n%s\n--- run2 ---\n%s", d1, d2)
	}
}
