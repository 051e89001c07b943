package core

import (
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestCycleTracePhases verifies that a Run joined to a trace records one
// hop per cycle phase under it and feeds the phase-duration histograms.
func TestCycleTracePhases(t *testing.T) {
	c := newCycle(t)
	c.Metrics = telemetry.NewRegistry()
	root := telemetry.Traces.StartTrace("test run")
	c.Trace = root.Context()
	rep, err := c.Run(IORGenerator{Config: paperIORConfig(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Analyze(rep.ObjectIDs[0]); err != nil {
		t.Fatal(err)
	}
	root.End()

	spans := telemetry.Traces.Release(root.TraceID())
	var names []string
	for _, s := range spans[1:] {
		if s.ParentID != spans[0].SpanID {
			t.Errorf("hop %q is not a child of the root: %+v", s.Name, s)
		}
		names = append(names, s.Name)
	}
	got := strings.Join(names, " ")
	if got != "generation extraction persistence analysis" {
		t.Errorf("phase hops = %q", got)
	}
	snap := c.Metrics.Snapshot()
	for _, phase := range []string{"generation", "extraction", "persistence", "analysis"} {
		if !strings.Contains(got, phase) {
			t.Errorf("trace children %q missing phase %q", got, phase)
		}
		hv, ok := snap.Histograms[telemetry.Label("cycle_phase_seconds", "phase", phase)]
		if !ok || hv.Count == 0 {
			t.Errorf("cycle_phase_seconds{phase=%q} not observed (ok=%v, %+v)", phase, ok, hv)
		}
	}
	for _, s := range spans {
		if s.Seconds < 0 {
			t.Errorf("span %q has negative duration %v", s.Name, s.Seconds)
		}
	}
}

// TestCycleUntracedStillCounts verifies metrics flow with the zero trace
// context (the default for library callers that never set Cycle.Trace).
func TestCycleUntracedStillCounts(t *testing.T) {
	c := newCycle(t)
	c.Metrics = telemetry.NewRegistry()
	if _, err := c.Run(IORGenerator{Config: paperIORConfig(t)}); err != nil {
		t.Fatal(err)
	}
	hv, ok := c.Metrics.Snapshot().Histograms[telemetry.Label("cycle_phase_seconds", "phase", "generation")]
	if !ok || hv.Count != 1 {
		t.Errorf("generation histogram = %+v (ok=%v)", hv, ok)
	}
}
