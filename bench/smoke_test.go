package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestSmokeAllWorkloads runs every workload, untraced and traced, at a
// fiftieth of its size with the correctness checks on. It proves the four
// paths work end to end; its numbers mean nothing (compare refuses them).
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads; skipped with -short")
	}
	// Databases, results and spans go under .bench_build of the working
	// directory; keep them out of the source tree.
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: w.Name, seed: 3, seconds: 1, scale: 0.02, trace: trace}
			res, err := runWorkload(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				var report bytes.Buffer
				res.print(&report)
				t.Errorf("%s trace=%v: attempted %d, failed %d\n%s", w.Name, trace, res.Attempted, res.Failed, report.String())
			}
			line, err := res.driverLine()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			var parsed struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]metricValue
			}
			if err := json.Unmarshal(line, &parsed); err != nil {
				t.Fatal(err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(parsed.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: the driver line has %d metrics, want %d", w.Name, trace, len(parsed.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := parsed.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or in the wrong unit: %+v", w.Name, trace, d.Name, v)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.Name, d.Name, v.Value)
				}
			}
			if trace {
				if res.SpanFile == "" {
					t.Errorf("%s: the traced run wrote no span file", w.Name)
				}
				if c, ok := res.Metrics["trace.chain_covered_frac"]; !ok || c.Value < 0.95 {
					t.Errorf("%s: layer self times cover %v of the outermost spans, want >= 0.95", w.Name, c.Value)
				}
			}
			if res.Fingerprint.CorpusSHA256 == "" || res.Fingerprint.StreamSHA256 == "" || res.Fingerprint.Scale != 0.02 {
				t.Errorf("%s: fingerprint incomplete: %+v", w.Name, res.Fingerprint)
			}
		}
	}
}
