package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func TestGenerateTraceFlag(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "knowledge.db")
	tracePath := filepath.Join(dir, "run.trace.json")
	out, err := capture(t, func() error {
		return run([]string{"generate", "--db", db, "--trace", tracePath,
			"ior", "-a", "posix", "-b", "1m", "-t", "256k", "-s", "2", "-i", "2", "-o", "/scratch/t"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "trace written to "+tracePath) {
		t.Errorf("output missing trace notice:\n%s", out)
	}
	// The printed flame tree shows the cycle phases.
	for _, phase := range []string{"generation", "extraction", "persistence"} {
		if !strings.Contains(out, phase) {
			t.Errorf("trace tree missing phase %q:\n%s", phase, out)
		}
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var spans []telemetry.SpanRecord
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("trace file is not a []SpanRecord: %v", err)
	}
	if len(spans) != 4 || spans[0].Name != "iokc generate" || spans[0].ParentID != "" {
		t.Fatalf("spans = %+v", spans)
	}
	for i, phase := range []string{"generation", "extraction", "persistence"} {
		if s := spans[i+1]; s.Name != phase || s.ParentID != spans[0].SpanID || s.TraceID != spans[0].TraceID {
			t.Errorf("span %d = %+v, want %s under the root", i+1, s, phase)
		}
	}
	// The printed tree is the shared assembler's rendering of the same spans.
	if !strings.HasSuffix(out, telemetry.TreeText(spans)) {
		t.Errorf("output does not end with the span tree:\n%s", out)
	}
	if left := telemetry.Traces.Spans(spans[0].TraceID); len(left) != 0 {
		t.Errorf("%d spans of the dumped trace still in the store", len(left))
	}
}

func TestCampaignTraceFlag(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "knowledge.db")
	tracePath := filepath.Join(dir, "campaign.trace.json")
	out, err := capture(t, func() error {
		return run([]string{"campaign", "--db", db, "--workers", "2", "--trace", tracePath,
			"ior -a posix -b 1m -t 256k -s 2 -i 1 -o /scratch/a",
			"ior -a posix -b 1m -t 512k -s 2 -i 1 -o /scratch/b"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "unit 0") || !strings.Contains(out, "unit 1") {
		t.Errorf("campaign trace tree missing unit spans:\n%s", out)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var spans []telemetry.SpanRecord
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("trace file is not a []SpanRecord: %v", err)
	}
	rows := telemetry.SpanTree(spans)
	if len(rows) != len(spans) || rows[0].Span.Name != "iokc campaign" || rows[0].Span.ParentID != "" {
		t.Fatalf("span tree root = %+v", rows)
	}
	if c := rows[1]; !strings.HasPrefix(c.Span.Name, "campaign ") || c.Span.ParentID != rows[0].Span.SpanID {
		t.Errorf("campaign span = %+v", c)
	}
	byName := map[string]int{}
	for _, r := range rows[2:] {
		if r.Depth < 2 {
			t.Errorf("span %q is not under the campaign hop (depth %d)", r.Span.Name, r.Depth)
		}
		byName[r.Span.Name]++
	}
	if byName["unit 0"] != 1 || byName["unit 1"] != 1 || byName["generation"] != 2 || byName["extraction"] != 2 || byName["persistence"] == 0 {
		t.Errorf("spans by name = %v", byName)
	}
	if !strings.HasSuffix(out, telemetry.TreeText(spans)) {
		t.Errorf("output does not end with the span tree:\n%s", out)
	}
}

// Without --trace no trace is started: nothing reaches the store.
func TestNoTraceFlagRecordsNothing(t *testing.T) {
	telemetry.Traces.Reset()
	db := filepath.Join(t.TempDir(), "knowledge.db")
	if _, err := capture(t, func() error {
		return run([]string{"generate", "--db", db,
			"ior", "-a", "posix", "-b", "1m", "-t", "256k", "-s", "2", "-i", "2", "-o", "/scratch/t"})
	}); err != nil {
		t.Fatal(err)
	}
	if spans := telemetry.Traces.AllSpans(); len(spans) != 0 {
		t.Errorf("untraced generate recorded %d spans: %+v", len(spans), spans[0])
	}
}
