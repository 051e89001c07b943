package main

import (
	"bytes"
	"strings"
	"testing"
)

// tenRuns spreads ten runs evenly within +-1% of centre.
func tenRuns(centre float64) []float64 {
	out := make([]float64, 10)
	for i := range out {
		out[i] = centre * (0.99 + 0.002*float64(i))
	}
	return out
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name     string
		def      metricDef
		old, new []float64
		want     string
	}{
		{"same numbers", lower, []float64{10, 10.1, 9.9}, []float64{10, 10.1, 9.9}, vUnchanged},
		{"small drift inside the bound", lower, []float64{10, 10.1, 9.9}, []float64{10.4, 10.5, 10.3}, vUnchanged},
		{"clearly slower", lower, []float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, vRegressed},
		{"clearly faster over ten pairs", lower, tenRuns(10), tenRuns(8), vImproved},
		{"clearly faster, but three pairs prove nothing", lower, []float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, vUnresolved},
		{"throughput down", higher, []float64{1000, 1010, 990}, []float64{850, 860, 840}, vRegressed},
		{"throughput up", higher, tenRuns(1000), tenRuns(1200), vImproved},
		{"worse median but noisy and interleaved", lower, []float64{10, 14, 9}, []float64{11.5, 9.5, 15}, vUnresolved},
		{"noisy, same median", lower, []float64{10, 14, 8}, []float64{10, 13, 8.5}, vUnresolved},
		{"noisy but every new run beats every old run", lower,
			[]float64{10, 14, 12, 11, 13, 10, 14, 12, 11, 13}, []float64{7, 5, 6, 5, 7, 6, 5, 7, 6, 5}, vImproved},
		{"faster but within the parent's own spread", lower, []float64{10, 10.3, 9.7}, []float64{9.9, 10.2, 9.6}, vUnchanged},
		{"no runs on one side", lower, nil, []float64{1}, vUnresolved},
	} {
		if got := verdict(c.def, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func syntheticSet(commit string, scale float64, p50 ...float64) *resultSet {
	rs := &resultSet{Schema: resultSchema}
	for i, v := range p50 {
		r := runResult{Workload: "api_warm", Correct: true, Attempted: 1,
			Fingerprint: fingerprint{CorpusSHA256: "c", StreamSHA256: "s", Seed: uint64(i), Seconds: 12, Scale: scale,
				GoVersion: "go", GOMAXPROCS: 2, NProc: 2, Commit: commit},
			Metrics: map[string]metricValue{"op_p50_ms": {Value: v, Unit: "ms"}, "api.cache_hit_ratio": {Value: 1, Unit: "ratio"}}}
		rs.Runs = append(rs.Runs, r)
	}
	return rs
}

func TestCompareSetsCountsRegressionsAndPrintsTheBase(t *testing.T) {
	old, slow := syntheticSet("a", 1, 1, 1.01, 0.99), syntheticSet("b", 1, 1.3, 1.31, 1.29)
	var out bytes.Buffer
	if n := compareSets(&out, old, slow); n != 1 {
		t.Errorf("regressed = %d, want 1\n%s", n, out.String())
	}
	for _, want := range []string{"regressed", "1.300x of 1 ms", "api.cache_hit_ratio"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if n := compareSets(&out, slow, old); n != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("the other direction is a gain on three pairs, so unresolved; regressed = %d\n%s", n, out.String())
	}
}

func TestCompareRefusesDifferentInputsAndScaledRuns(t *testing.T) {
	a, b := syntheticSet("a", 1, 1, 1, 1), syntheticSet("b", 1, 1, 1, 1)
	if why := comparable(a, b, false); why != "" {
		t.Errorf("sets differing only in commit must compare: %s", why)
	}
	b.Runs[1].Fingerprint.CorpusSHA256 = "other"
	if why := comparable(a, b, false); !strings.Contains(why, "fingerprints differ") {
		t.Errorf("a different corpus must be refused, got %q", why)
	}
	if why := comparable(a, syntheticSet("b", 0.02, 1, 1, 1), false); !strings.Contains(why, "--scale") {
		t.Errorf("scaled results must be refused, got %q", why)
	}
}
